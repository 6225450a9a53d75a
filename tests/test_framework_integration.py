"""End-to-end ReSHAPE framework tests: full resize lifecycles."""

import numpy as np
import pytest

from repro.apps import (
    JacobiApplication,
    LUApplication,
    MasterWorkerApplication,
    MatMulApplication,
)
from repro.cluster import MachineSpec
from repro.core import JobState, ReshapeFramework


def small_spec(n=16):
    return MachineSpec(num_nodes=n)


def test_single_job_expands_and_completes():
    fw = ReshapeFramework(num_processors=16, machine_spec=small_spec())
    app = LUApplication(480, block=48, iterations=6, materialized=True)
    job = fw.submit(app, config=(1, 2))
    fw.run()
    assert job.state == JobState.FINISHED
    assert len(job.iteration_log) == 6
    # It expanded at least once...
    actions = [c.reason for c in fw.timeline.changes]
    assert "expand" in actions
    # ...and all processors were returned at the end.
    assert fw.pool.free_count == 16


def test_data_survives_resizes():
    fw = ReshapeFramework(num_processors=16, machine_spec=small_spec())
    app = LUApplication(480, block=48, iterations=6, materialized=True)
    job = fw.submit(app, config=(1, 2))
    fw.run()
    rng = np.random.default_rng(1234)
    ref = rng.standard_normal((480, 480))
    np.testing.assert_allclose(job.data["A"].to_global(), ref)


def test_static_mode_holds_configuration():
    fw = ReshapeFramework(num_processors=16, machine_spec=small_spec(),
                          dynamic=False)
    app = LUApplication(480, block=48, iterations=4)
    job = fw.submit(app, config=(2, 2))
    fw.run()
    assert job.state == JobState.FINISHED
    configs = {rec[1] for rec in job.iteration_log}
    assert configs == {(2, 2)}
    reasons = [c.reason for c in fw.timeline.changes]
    assert reasons == ["start", "finish"]


def test_queued_job_waits_for_processors_fcfs():
    fw = ReshapeFramework(num_processors=4, machine_spec=small_spec(4),
                          dynamic=False, backfill=False)
    app1 = LUApplication(480, block=48, iterations=3)
    app2 = LUApplication(480, block=48, iterations=2)
    j1 = fw.submit(app1, config=(2, 2), arrival=0.0)
    j2 = fw.submit(app2, config=(2, 2), arrival=0.0)
    fw.run()
    assert j1.state == j2.state == JobState.FINISHED
    assert j2.start_time >= j1.end_time


def test_backfill_starts_small_job_early():
    fw = ReshapeFramework(num_processors=6, machine_spec=small_spec(8),
                          dynamic=False, backfill=True)
    blocker = LUApplication(480, block=48, iterations=4)
    big = LUApplication(480, block=48, iterations=2)
    small = LUApplication(480, block=48, iterations=2)
    j_block = fw.submit(blocker, config=(2, 2), arrival=0.0)  # takes 4
    j_big = fw.submit(big, config=(2, 3), arrival=1e-3)       # needs 6
    j_small = fw.submit(small, config=(1, 2), arrival=2e-3)   # needs 2
    fw.run()
    # The small job backfilled into the two free processors.
    assert j_small.start_time < j_big.start_time
    assert all(j.state == JobState.FINISHED
               for j in (j_block, j_big, j_small))


def test_running_job_shrinks_for_queued_job():
    fw = ReshapeFramework(num_processors=6, machine_spec=small_spec(8))
    first = LUApplication(480, block=48, iterations=8)
    second = LUApplication(480, block=48, iterations=2)
    j1 = fw.submit(first, config=(1, 2), arrival=0.0)
    # Arrives once j1 has grown; j1 must shrink to make room.
    j2 = fw.submit(second, config=(2, 2), arrival=0.15)
    fw.run()
    assert j1.state == j2.state == JobState.FINISHED
    shrinks = [c for c in fw.timeline.changes
               if c.reason == "shrink" and c.job_id == j1.job_id]
    assert shrinks, "first job never shrank for the queued one"
    assert j2.start_time >= shrinks[0].time


def test_masterworker_resizes_without_data():
    fw = ReshapeFramework(num_processors=12, machine_spec=small_spec(12))
    app = MasterWorkerApplication(int(2e9), iterations=4)
    app.units_per_iteration = 500
    app.chunk_size = 50
    job = fw.submit(app, config=(1, 2))
    fw.run()
    assert job.state == JobState.FINISHED
    actions = [c.reason for c in fw.timeline.changes
               if c.job_id == job.job_id]
    assert "expand" in actions
    assert job.redistribution_time == 0.0  # nothing to redistribute


def test_checkpoint_redistribution_method():
    fw = ReshapeFramework(num_processors=8, machine_spec=small_spec(8),
                          redistribution_method="checkpoint")
    app = LUApplication(480, block=48, iterations=4, materialized=True)
    job = fw.submit(app, config=(1, 2))
    fw.run()
    assert job.state == JobState.FINISHED
    rng = np.random.default_rng(1234)
    ref = rng.standard_normal((480, 480))
    np.testing.assert_allclose(job.data["A"].to_global(), ref)
    assert fw.machine.disk.bytes_written > 0


def test_checkpoint_method_costs_more():
    def total_redist(method):
        fw = ReshapeFramework(num_processors=8, machine_spec=small_spec(8),
                              redistribution_method=method)
        app = LUApplication(960, block=96, iterations=4)
        job = fw.submit(app, config=(1, 2))
        fw.run()
        return job.redistribution_time

    t_ckpt = total_redist("checkpoint")
    t_reshape = total_redist("reshape")
    assert t_ckpt > 2.0 * t_reshape


def test_utilization_and_turnaround_reported():
    fw = ReshapeFramework(num_processors=8, machine_spec=small_spec(8),
                          dynamic=False)
    app = LUApplication(480, block=48, iterations=3)
    job = fw.submit(app, config=(2, 2))
    fw.run()
    ta = fw.turnaround_times()
    assert job.name in ta and ta[job.name] > 0
    util = fw.utilization()
    assert 0.0 < util <= 1.0
    # Static single job on 4 of 8 processors: utilization about half.
    assert util == pytest.approx(0.5, abs=0.2)


def test_dynamic_beats_static_on_turnaround():
    """The headline claim: resizing improves turn-around time."""
    def turnaround(dynamic):
        fw = ReshapeFramework(num_processors=16, machine_spec=small_spec(),
                              dynamic=dynamic)
        # A compute-heavy job that genuinely scales (phantom mode, so
        # paper-ish problem sizes cost nothing to simulate).
        app = MatMulApplication(4800, block=480, iterations=6)
        job = fw.submit(app, config=(1, 2))
        fw.run()
        assert job.state == JobState.FINISHED
        return job.turnaround

    t_static = turnaround(False)
    t_dynamic = turnaround(True)
    assert t_dynamic < t_static


def test_oversized_submission_rejected():
    fw = ReshapeFramework(num_processors=4, machine_spec=small_spec(4))
    with pytest.raises(ValueError):
        fw.submit(LUApplication(480, block=48), config=(4, 4))


def test_arrival_times_respected():
    fw = ReshapeFramework(num_processors=8, machine_spec=small_spec(8),
                          dynamic=False)
    app = LUApplication(480, block=48, iterations=2)
    job = fw.submit(app, config=(2, 2), arrival=5.0)
    fw.run()
    assert job.start_time >= 5.0


def test_jacobi_resizes_with_solver_state():
    fw = ReshapeFramework(num_processors=10, machine_spec=small_spec(10))
    app = JacobiApplication(40, block=5, iterations=5, materialized=True)
    app.inner_sweeps = 25
    job = fw.submit(app, config=(2, 1))
    fw.run()
    assert job.state == JobState.FINISHED
    assert app.verify(job.data)
    actions = [c.reason for c in fw.timeline.changes]
    assert "expand" in actions


def test_zero_processors_rejected():
    """0 is a processor count, not "unset": it is refused as a negative
    count is, rather than running on the whole machine."""
    for count in (0, -3):
        with pytest.raises(ValueError):
            ReshapeFramework(num_processors=count, machine_spec=small_spec())
