"""Dynamic process management: spawn, merge, sub-communicators."""

import pytest

from repro.cluster import Machine, MachineSpec
from repro.mpi import MPIError, SUM, World
from repro.simulate import Environment


def make_world(num_nodes=16, spawn_overhead=0.0):
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=num_nodes))
    world = World(env, machine, launch_overhead=0.0,
                  spawn_overhead=spawn_overhead)
    return env, world


def test_spawn_and_merge_allreduce():
    """Parents spawn two children; merged comm of 4 runs an allreduce."""
    env, world = make_world()
    results = {}

    def child_main(comm):
        total = yield from comm.allreduce(comm.rank, SUM)
        results[f"child{comm.rank}"] = total

    def parent_main(comm):
        merged = None
        if comm.rank == 0:
            inter = world.spawn_multiple(child_main, [2, 3], parent=comm)
            merged = inter.merge(parent_rank=0)
        # Root shares the merged shared-state with the other parents.
        merged = yield from comm.bcast(merged, root=0)
        if comm.rank != 0:
            merged = merged.view(comm.rank)
        total = yield from merged.allreduce(merged.rank, SUM)
        results[f"parent{comm.rank}"] = total

    world.launch(parent_main, processors=[0, 1])
    env.run()
    # ranks 0+1+2+3 = 6 everywhere
    assert results == {"parent0": 6, "parent1": 6, "child2": 6, "child3": 6}


def test_merged_rank_order_parents_first():
    env, world = make_world()
    seen = {}

    def child_main(comm):
        seen[("child", comm.rank)] = comm.processors
        yield comm.env.timeout(0)

    def parent_main(comm):
        if comm.rank == 0:
            inter = world.spawn_multiple(child_main, [7, 9], parent=comm)
            merged = inter.merge(parent_rank=0)
            seen[("parent", merged.rank)] = merged.processors
        yield comm.env.timeout(0)

    world.launch(parent_main, processors=[3, 5])
    env.run()
    # Parent processors [3,5] keep ranks 0,1; children 7,9 get ranks 2,3.
    assert seen[("parent", 0)] == [3, 5, 7, 9]
    assert seen[("child", 2)] == [3, 5, 7, 9]
    assert seen[("child", 3)] == [3, 5, 7, 9]


def test_spawn_overhead_charged():
    env, world = make_world(spawn_overhead=0.5)
    started = {}

    def child_main(comm):
        started[comm.rank] = comm.env.now
        yield comm.env.timeout(0)

    def parent_main(comm):
        world.spawn_multiple(child_main, [1], parent=comm)
        yield comm.env.timeout(0)

    world.launch(parent_main, processors=[0])
    env.run()
    assert started[1] == pytest.approx(0.5)


def test_spawn_overlapping_processors_rejected():
    env, world = make_world()

    def child_main(comm):
        yield comm.env.timeout(0)

    def parent_main(comm):
        world.spawn_multiple(child_main, [0], parent=comm)
        yield comm.env.timeout(0)

    world.launch(parent_main, processors=[0, 1])
    with pytest.raises(MPIError):
        env.run()


def test_create_sub_shrinks_group():
    env, world = make_world()
    out = {}

    def main(comm):
        sub = yield from comm.create_sub([0, 1])
        if sub is not None:
            total = yield from sub.allreduce(sub.rank + 100, SUM)
            out[comm.rank] = (sub.rank, sub.size, total)
        else:
            out[comm.rank] = None

    world.launch(main, processors=[10, 11, 12, 13])
    env.run()
    assert out[0] == (0, 2, 201)
    assert out[1] == (1, 2, 201)
    assert out[2] is None and out[3] is None


def test_create_sub_preserves_processors():
    env, world = make_world()
    out = {}

    def main(comm):
        sub = yield from comm.create_sub([0, 2])
        if sub is not None:
            out[comm.rank] = sub.processors
        else:
            yield comm.env.timeout(0)

    world.launch(main, processors=[5, 6, 7])
    env.run()
    assert out[0] == [5, 7]
    assert out[2] == [5, 7]


def test_create_sub_empty_rejected():
    env, world = make_world()

    def main(comm):
        yield from comm.create_sub([])

    world.launch(main, processors=[0])
    with pytest.raises(MPIError):
        env.run()


def test_launch_zero_processors_rejected():
    env, world = make_world()

    def main(comm):
        yield comm.env.timeout(0)

    with pytest.raises(MPIError):
        world.launch(main, processors=[])


def test_duplicate_processors_rejected():
    env, world = make_world()

    def main(comm):
        yield comm.env.timeout(0)

    with pytest.raises(MPIError):
        world.launch(main, processors=[0, 0])


def test_shrink_then_regrow_cycle():
    """The full ReSHAPE mechanic: 4 ranks -> sub(2) -> spawn back to 4."""
    env, world = make_world()
    trace = []

    def child_main(comm):
        total = yield from comm.allreduce(1, SUM)
        trace.append(("child", comm.rank, total))

    def main(comm):
        sub = yield from comm.create_sub([0, 1])
        if sub is None:
            return  # ranks 2,3 exit — the "shrink"
        merged = None
        if sub.rank == 0:
            inter = world.spawn_multiple(child_main, [8, 9], parent=sub)
            merged = inter.merge(parent_rank=0)
        merged = yield from sub.bcast(merged, root=0)
        if sub.rank != 0:
            merged = merged.view(sub.rank)
        total = yield from merged.allreduce(1, SUM)
        trace.append(("parent", merged.rank, total))

    world.launch(main, processors=[0, 1, 2, 3])
    env.run()
    totals = {t[2] for t in trace}
    assert totals == {4}
    assert len(trace) == 4
