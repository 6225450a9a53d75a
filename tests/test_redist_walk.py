"""The closed-form redistribution walk against the live driver.

``repro.redist.walk`` replaces the live driver of ``redistribute`` and
``checkpoint_redistribute`` when the run's state proves it alone on the
network.  The contract: per-rank completion times, every
``RedistributionResult`` field, the final NIC engine state and every
counter (``CommStats``, ``NetworkStats`` messages/bytes, NIC and disk
bytes) are ``==`` to the live driver's, which the tests force by failing
the gate; only ``NetworkStats.busy_time`` — the same terms summed in
another order — gets the 1e-12 association band of docs/phantom.md.
Materialized runs must also land the same matrix.

The second half checks that each gate condition, taken alone, sends the
call to the live driver.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.blacs import ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor, DistributedMatrix
from repro.mpi import World
from repro.redist import (
    Schedule2D,
    build_2d_schedule,
    checkpoint_redistribute,
    redistribute,
    walk,
)
from repro.simulate import Environment

grids = st.tuples(st.integers(1, 6), st.integers(1, 6))


@st.composite
def scenarios(draw):
    old = draw(grids)
    new = draw(grids)
    size = max(old[0] * old[1], new[0] * new[1]) + draw(st.integers(0, 2))
    block = draw(st.sampled_from([2, 3, 5]))
    n = block * draw(st.integers(1, 9)) - draw(st.integers(0, block - 1))
    skew = draw(st.sampled_from([0.0, 1e-4, 3e-3]))
    return {
        "old": old, "new": new, "size": size, "n": max(n, 1),
        "block": block,
        "method": draw(st.sampled_from(["reshape", "checkpoint"])),
        "materialized": draw(st.booleans()),
        "penalty": draw(st.sampled_from([0.0, 0.2])),
        "nic_x": draw(st.sampled_from([1.0, 2.0])),
        # Entry time per rank: all at once, or skewed.
        "entries": [draw(st.sampled_from([0.0, skew]))
                    for _ in range(size)],
        # Residual engine occupancy left on some member NICs.
        "residual": draw(st.dictionaries(
            st.integers(0, size - 1),
            st.tuples(st.sampled_from([0.0, 2e-4, 5e-3]),
                      st.sampled_from([0.0, 1e-4, 4e-3])),
            max_size=size)),
    }


def run(sc, *, setup=None, spec_changes=None, schedule=None):
    """Run one redistribution; everything the contract compares."""
    env = Environment()
    spec = MachineSpec(num_nodes=sc["size"] + 2,
                       contention_penalty=sc["penalty"],
                       nic_bandwidth=MachineSpec().nic_bandwidth * sc["nic_x"])
    if spec_changes:
        spec = replace(spec, **spec_changes)
    machine = Machine(env, spec)
    world = World(env, machine, launch_overhead=0.0)
    for node, (tx, rx) in sc["residual"].items():
        machine.nodes[node].nic.fp_free[:] = [tx, rx]
    n, block = sc["n"], sc["block"]
    desc = Descriptor(m=n, n=n, mb=block, nb=block, grid=ProcessGrid(*sc["old"]))
    original = np.arange(n * n, dtype=np.float64).reshape(n, n)
    source = (DistributedMatrix.from_global(original, desc)
              if sc["materialized"] else DistributedMatrix(desc))
    new_grid = ProcessGrid(*sc["new"])
    out = {}

    def main(comm):
        if sc["entries"][comm.rank]:
            yield env.sleep(sc["entries"][comm.rank])
        if sc["method"] == "checkpoint":
            res = yield from checkpoint_redistribute(comm, source, new_grid)
        else:
            res = yield from redistribute(comm, source, new_grid,
                                          schedule=schedule)
        out[comm.rank] = (env.now, res.elapsed, res.messages,
                          res.bytes_moved, res.local_copies,
                          res.total_bytes_moved, res.payload_nbytes,
                          res.steps, res.matrix is None)
        if comm.rank == 0:
            out["matrix"] = res.matrix

    group = world.launch(main, processors=list(range(sc["size"])))
    if setup is not None:
        setup(env, world)
    env.run()
    net = machine.network
    stats = group.comm_shared.stats
    exact = (
        [out[r] for r in range(sc["size"])],
        [(node.nic.fp_free[:], node.nic.bytes_sent, node.nic.bytes_received)
         for node in machine.nodes],
        (stats.sends, stats.bytes_sent, stats.collectives),
        (net.stats.messages, net.stats.bytes),
        (machine.disk.bytes_written, machine.disk.bytes_read),
        env.now,
    )
    if sc["materialized"]:
        assert np.array_equal(out["matrix"].to_global(), original)
    return exact, net.stats.busy_time


def walked_run(sc, **kwargs):
    """``run`` with the gate as it is; also whether a walk completed."""
    taken = []
    complete = walk.complete

    def spy(*args, **kw):
        outcome = complete(*args, **kw)
        taken.append(outcome is not None)
        return outcome
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "complete", spy)
        return run(sc, **kwargs), any(taken)


def live_run(sc, **kwargs):
    """The live driver's result: the gate fails, in this test only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_admit", lambda comm: False)
        return run(sc, **kwargs)


def assert_identical(sc, **kwargs) -> bool:
    """Walk (where admitted) == live driver; returns whether it walked."""
    (walked, walked_busy), took = walked_run(sc, **kwargs)
    ref, ref_busy = live_run(sc, **kwargs)
    assert walked == ref
    assert walked_busy == pytest.approx(ref_busy, rel=1e-12)
    return took


@settings(deadline=None, max_examples=150)
@given(sc=scenarios())
def test_walk_matches_live_driver(sc):
    event(f"walked: {assert_identical(sc)}")


#: A call the gate admits: alone on a quiet machine, default schedule.
BASE = {"old": (2, 3), "new": (3, 3), "size": 9, "n": 40, "block": 4,
        "method": "reshape", "materialized": False, "penalty": 0.2,
        "nic_x": 1.0, "entries": [0.0] * 9, "residual": {}}


@pytest.mark.parametrize("method", ["reshape", "checkpoint"])
@pytest.mark.parametrize("old,new", [((2, 3), (3, 3)), ((2, 2), (2, 4)),
                                     ((4, 2), (2, 2)), ((1, 1), (1, 1))])
def test_admitted_calls_take_the_walk(method, old, new):
    sc = dict(BASE, old=old, new=new, method=method,
              size=max(old[0] * old[1], new[0] * new[1]))
    sc["entries"] = [0.0] * sc["size"]
    assert assert_identical(sc)


def _second_job(env, world):
    def other(comm):
        yield env.sleep(1.0)
    world.launch(other, processors=[10], name="other")


def _framework_record(env, world):
    env.call_at(0.5, env.register_handler(lambda _arg: None), None)


def _naive(sc):
    desc = Descriptor(m=sc["n"], n=sc["n"], mb=sc["block"], nb=sc["block"],
                      grid=ProcessGrid(*sc["old"]))
    full = build_2d_schedule(desc.row_blocks, desc.col_blocks, sc["old"],
                             sc["new"])
    return Schedule2D(src_grid=sc["old"], dst_grid=sc["new"],
                      row_blocks=full.row_blocks, col_blocks=full.col_blocks,
                      steps=[full.messages])


@pytest.mark.parametrize("condition,method", [
    (condition, method)
    for condition in ("second job", "pending record", "tight backplane")
    for method in ("reshape", "checkpoint")] + [
    ("naive schedule", "reshape")])    # the comparator has no schedule
def test_each_gate_condition_sends_the_call_live(condition, method):
    sc = dict(BASE, method=method)
    kwargs = {
        "second job": {"setup": _second_job},
        "pending record": {"setup": _framework_record},
        "tight backplane": {"spec_changes": {
            "backplane_bandwidth": 4 * MachineSpec().nic_bandwidth}},
        "naive schedule": {"schedule": _naive(sc)},
    }[condition]
    assert assert_identical(sc)
    assert not assert_identical(sc, **kwargs)


def test_residual_wire_intervals_count_against_the_headroom():
    """Flows still on the backplane at entry: admitted only while they
    plus ``size`` flows fit."""
    sc = dict(BASE, size=4, old=(2, 2), new=(1, 4), entries=[0.0] * 4)
    bandwidth = MachineSpec().nic_bandwidth
    changes = {"backplane_bandwidth": 6 * bandwidth}

    def on_wire(count):
        def setup(env, world):
            world.machine.network.replay._act_fast.extend([1.0] * count)
        return setup

    assert assert_identical(sc, setup=on_wire(2), spec_changes=changes)
    assert not assert_identical(sc, setup=on_wire(3), spec_changes=changes)
