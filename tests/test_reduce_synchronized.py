"""Synchronized SPMD entry into the live fast-path ``reduce``.

Regression sweep for a hop-class bug: a rank that consumed a message
*already waiting* in its mailbox sent one kernel event later than a
same-instant peer that consumed nothing, which ``CollSim`` did not
model — for 13 of the rank counts up to 50 (never ``root=0``) two
contending senders swapped places and one clock moved by a contended
wire time.  Every root of the first six affected sizes must agree with
the generator path over the event-chain reference
(``tests/oracles/p2p.py``) on per-rank clocks, values and counters.
"""

import pytest

from repro.cluster import Machine, MachineSpec
from repro.mpi import Phantom, SUM, World
from repro.simulate import Environment

pytestmark = pytest.mark.usefixtures("p2p_oracle")


def _reduce(nprocs, root, nbytes, fast):
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=nprocs))
    world = World(env, machine, launch_overhead=0.0,
                  fastpath=fast)

    def main(comm):
        result = yield from comm.reduce(Phantom(nbytes), SUM, root=root)
        return (comm.env.now, None if result is None else result.nbytes)

    group = world.launch(main, processors=list(range(nprocs)))
    env.run()
    stats = group.comm_shared.stats
    net = machine.network.stats
    return ([p.value for p in group.processes],
            (stats.sends, stats.bytes_sent, stats.collectives),
            (net.messages, net.bytes),
            [(node.nic.bytes_sent, node.nic.bytes_received)
             for node in machine.nodes])


@pytest.mark.parametrize("nprocs", [13, 21, 25, 26, 27, 29])
@pytest.mark.parametrize("nbytes", [0, 4096])
def test_synchronized_reduce_matches_generator_path(nprocs, nbytes):
    divergent = [root for root in range(nprocs)
                 if _reduce(nprocs, root, nbytes, False)
                 != _reduce(nprocs, root, nbytes, True)]
    assert not divergent
