"""Real payloads through every collective, at every root.

The generator collectives run their op tables' programs
(``Comm._collective``), so what a table does with a value — keep,
replace, combine or store it, and at which index — is what the
application sees.  These tests check the returned values against plain
Python, with the world's fast-path switch on and off (every send rides
the network replay either way).  A non-commutative reduction
(tuple concatenation) pins the combine order ``op(received, running)``.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import Machine, MachineSpec
from repro.mpi import ReduceOp, World
from repro.simulate import Environment

#: Tuple concatenation: associative, not commutative.
CONCAT = ReduceOp("concat", lambda a, b: a + b)


def run_all(nprocs, root, fastpath, salt):
    """Every rank runs each collective once; returns per-rank results."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=nprocs))
    world = World(env, machine, launch_overhead=0.0, fastpath=fastpath)

    def main(comm):
        rank = comm.rank
        out = {}
        out["barrier"] = yield from comm.barrier()
        out["bcast"] = yield from comm.bcast(
            (salt, "b") if rank == root else None, root=root)
        out["reduce"] = yield from comm.reduce((rank,), CONCAT, root=root)
        out["allreduce"] = yield from comm.allreduce((rank,), CONCAT)
        out["gather"] = yield from comm.gather((salt, rank), root=root)
        out["allgather"] = yield from comm.allgather(f"{salt}:{rank}")
        out["alltoall"] = yield from comm.alltoall(
            [(rank, dest, salt) for dest in range(comm.size)])
        out["scatter"] = yield from comm.scatter(
            [(salt, dest) for dest in range(comm.size)]
            if rank == root else None, root=root)
        return out

    group = world.launch(main, processors=list(range(nprocs)))
    env.run()
    return [p.value for p in group.processes]


@settings(deadline=None, max_examples=40)
@given(nprocs=st.integers(1, 9), root=st.integers(0, 8),
       fastpath=st.booleans(), salt=st.integers(0, 10**6))
def test_every_collective_returns_the_textbook_values(nprocs, root,
                                                      fastpath, salt):
    root %= nprocs
    results = run_all(nprocs, root, fastpath, salt)
    # Binomial reduce with op(received, running): the partial of a
    # higher relative rank lands in front, so the root sees the ranks in
    # descending relative order.
    descending = tuple((root + rel) % nprocs
                       for rel in reversed(range(nprocs)))
    for rank, out in enumerate(results):
        at_root = rank == root
        assert out["barrier"] is None
        assert out["bcast"] == (salt, "b")
        assert out["reduce"] == (descending if at_root else None)
        assert out["allreduce"] == tuple(reversed(range(nprocs)))
        assert out["gather"] == ([(salt, r) for r in range(nprocs)]
                                 if at_root else None)
        assert out["allgather"] == [f"{salt}:{r}" for r in range(nprocs)]
        assert out["alltoall"] == [(src, rank, salt)
                                   for src in range(nprocs)]
        assert out["scatter"] == (salt, rank)

