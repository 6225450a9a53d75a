"""Collective-operation tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.mpi import MAX, MIN, MPIError, Phantom, SUM, World
from repro.mpi.fastcoll import SEND, TABLES
from repro.simulate import Environment


def run_spmd(main, nprocs=4, num_nodes=16):
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=num_nodes))
    world = World(env, machine, launch_overhead=0.0)
    group = world.launch(main, processors=list(range(nprocs)))
    env.run()
    return env, [p.value for p in group.processes]


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8, 13])
def test_bcast_all_sizes(nprocs):
    def main(comm):
        payload = "the-word" if comm.rank == 0 else None
        result = yield from comm.bcast(payload, root=0)
        return result

    _, values = run_spmd(main, nprocs=nprocs)
    assert values == ["the-word"] * nprocs


@pytest.mark.parametrize("root", [0, 1, 3])
def test_bcast_nonzero_root(root):
    def main(comm):
        payload = 123 if comm.rank == root else None
        result = yield from comm.bcast(payload, root=root)
        return result

    _, values = run_spmd(main, nprocs=4)
    assert values == [123] * 4


@pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
def test_reduce_sum_scalars(nprocs):
    def main(comm):
        result = yield from comm.reduce(comm.rank + 1, SUM, root=0)
        return result

    _, values = run_spmd(main, nprocs=nprocs)
    assert values[0] == nprocs * (nprocs + 1) // 2
    assert all(v is None for v in values[1:])


def test_reduce_numpy_elementwise():
    def main(comm):
        vec = np.full(4, float(comm.rank))
        result = yield from comm.reduce(vec, SUM, root=0)
        return None if result is None else result.tolist()

    _, values = run_spmd(main, nprocs=4)
    assert values[0] == [6.0, 6.0, 6.0, 6.0]


def test_reduce_max_min():
    def main(comm):
        mx = yield from comm.allreduce(comm.rank, MAX)
        mn = yield from comm.allreduce(comm.rank, MIN)
        return (mx, mn)

    _, values = run_spmd(main, nprocs=5)
    assert values == [(4, 0)] * 5


@pytest.mark.parametrize("nprocs", [1, 2, 3, 6, 8])
def test_allreduce_sum(nprocs):
    def main(comm):
        result = yield from comm.allreduce(comm.rank, SUM)
        return result

    _, values = run_spmd(main, nprocs=nprocs)
    assert values == [sum(range(nprocs))] * nprocs


@pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
def test_gather(nprocs):
    def main(comm):
        result = yield from comm.gather(comm.rank * 2, root=0)
        return result

    _, values = run_spmd(main, nprocs=nprocs)
    assert values[0] == [2 * r for r in range(nprocs)]
    assert all(v is None for v in values[1:])


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
def test_allgather_ring(nprocs):
    def main(comm):
        result = yield from comm.allgather(f"r{comm.rank}")
        return result

    _, values = run_spmd(main, nprocs=nprocs)
    expected = [f"r{r}" for r in range(nprocs)]
    assert values == [expected] * nprocs


@pytest.mark.parametrize("nprocs", [1, 2, 4, 6])
def test_scatter(nprocs):
    def main(comm):
        payloads = None
        if comm.rank == 0:
            payloads = [r * 10 for r in range(comm.size)]
        item = yield from comm.scatter(payloads, root=0)
        return item

    _, values = run_spmd(main, nprocs=nprocs)
    assert values == [r * 10 for r in range(nprocs)]


def test_scatter_wrong_length_rejected():
    def main(comm):
        payloads = [1] if comm.rank == 0 else None
        yield from comm.scatter(payloads, root=0)

    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=4))
    world = World(env, machine, launch_overhead=0.0)
    world.launch(main, processors=[0, 1])
    with pytest.raises(MPIError):
        env.run()


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5])
def test_alltoall_permutation(nprocs):
    def main(comm):
        outbox = [f"{comm.rank}->{d}" for d in range(comm.size)]
        inbox = yield from comm.alltoall(outbox)
        return inbox

    _, values = run_spmd(main, nprocs=nprocs)
    for r, inbox in enumerate(values):
        assert inbox == [f"{s}->{r}" for s in range(nprocs)]


def test_barrier_synchronizes():
    """Ranks that arrive early wait for the stragglers."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=4))
    world = World(env, machine, launch_overhead=0.0)
    release_times = {}

    def main(comm):
        yield comm.env.timeout(float(comm.rank))  # staggered arrival
        yield from comm.barrier()
        release_times[comm.rank] = comm.env.now

    world.launch(main, processors=[0, 1, 2, 3])
    env.run()
    # Nobody leaves the barrier before the last arrival at t=3.
    assert min(release_times.values()) >= 3.0


def test_back_to_back_collectives_do_not_cross_match():
    """Two bcasts in sequence get distinct tags and stay ordered."""
    def main(comm):
        a = yield from comm.bcast("A" if comm.rank == 0 else None, root=0)
        b = yield from comm.bcast("B" if comm.rank == 0 else None, root=0)
        return (a, b)

    _, values = run_spmd(main, nprocs=6)
    assert values == [("A", "B")] * 6


def test_bcast_phantom_payload():
    def main(comm):
        payload = Phantom(5000) if comm.rank == 0 else None
        result = yield from comm.bcast(payload, root=0)
        return result.nbytes

    _, values = run_spmd(main, nprocs=4)
    assert values == [5000] * 4


def test_reduce_phantom_keeps_size():
    def main(comm):
        result = yield from comm.allreduce(Phantom(800), SUM)
        return result.nbytes

    _, values = run_spmd(main, nprocs=4)
    assert values == [800] * 4


def test_bcast_cost_scales_logarithmically():
    """Binomial bcast of a big message: time grows ~log2(P), not ~P."""
    def timed(nprocs):
        env = Environment()
        machine = Machine(env, MachineSpec(num_nodes=32, latency=0.0))
        world = World(env, machine, launch_overhead=0.0)

        def main(comm):
            payload = Phantom(112_000_000) if comm.rank == 0 else None
            yield from comm.bcast(payload, root=0)

        world.launch(main, processors=list(range(nprocs)))
        env.run()
        return env.now

    t2, t4, t16 = timed(2), timed(4), timed(16)
    assert t4 == pytest.approx(2 * t2, rel=0.05)
    assert t16 == pytest.approx(4 * t2, rel=0.05)   # log2(16)=4 rounds


def test_switched_off_collectives_ride_the_replay():
    """With the world switch off, collectives decline the fast path and
    run their op tables as real messages, every one of them a transfer
    on the network replay."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=4))
    world = World(env, machine, launch_overhead=0.0, fastpath=False)
    calls = [("barrier", 0), ("bcast", 0), ("reduce", 2), ("allgather", 0)]

    def main(comm):
        yield from comm.barrier()
        yield from comm.bcast(Phantom(5_000) if comm.rank == 0 else None)
        yield from comm.reduce(Phantom(3_000), SUM, root=2)
        yield from comm.allgather(Phantom(1_000))

    group = world.launch(main, processors=list(range(4)))
    assert group.view(0)._fastcoll() is None
    env.run()
    hops = sum(op[0] == SEND for kind, root in calls
               for program in TABLES[kind](4, root).ops for op in program)
    assert machine.network.replay._seq == hops
    assert machine.network.stats.messages == hops
