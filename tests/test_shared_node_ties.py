"""Synchronized entry into live fast-path collectives on shared nodes.

With ``cpus_per_node > 1`` several ranks share one NIC, so sends that
start at one instant contend for one engine, and the replay grants
them in the causal-chain order ``CollSim``'s cause keys model
(docs/phantom.md, "Exactly-tied NIC grants").  That order does not
yet match the event kernel in every shape: the strict xfails below
were measured against the generator path with every rank entering at
the same instant.  The passing neighbours show the harness itself is
right.
"""

import math

import pytest

from repro.mpi import Phantom, SUM
from test_fastcoll_equivalence import assert_equivalent, run_both

#: Payload of the reduce cases.
NBYTES = 5000


def shared(main, nprocs, cpus_per_node):
    return run_both(main, nprocs, cpus_per_node=cpus_per_node,
                    num_nodes=math.ceil(nprocs / cpus_per_node))


def barrier(comm):
    yield from comm.barrier()
    return comm.env.now


def reducer(root):
    def main(comm):
        result = yield from comm.reduce(Phantom(NBYTES), SUM, root=root)
        return (comm.env.now, None if result is None else result.nbytes)
    return main


@pytest.mark.parametrize("nprocs,cpus_per_node", [
    (8, 2),
    (8, 4),
    # Two ranks' completions trade places (0.81576 ms and 0.81704 ms).
    pytest.param(8, 3, marks=pytest.mark.xfail(strict=True)),
    pytest.param(16, 6, marks=pytest.mark.xfail(strict=True)),
])
def test_synchronized_barrier_on_shared_nodes(nprocs, cpus_per_node):
    assert_equivalent(*shared(barrier, nprocs, cpus_per_node))


@pytest.mark.parametrize("nprocs,cpus_per_node,root", [
    (9, 4, 7),
    (9, 3, 8),
    # The root finishes 10 % early: 0.911 ms against 1.013 ms.
    pytest.param(9, 4, 8, marks=pytest.mark.xfail(strict=True)),
    pytest.param(17, 5, 0, marks=pytest.mark.xfail(strict=True)),
])
def test_synchronized_reduce_on_shared_nodes(nprocs, cpus_per_node, root):
    assert_equivalent(*shared(reducer(root), nprocs, cpus_per_node))
