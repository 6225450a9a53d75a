"""Failure injection: crashing applications must not take down the
scheduler, and their resources must be recovered (paper's job-error
signal path through the System Monitor)."""

from typing import Generator

from repro.apps import LUApplication
from repro.apps.base import AppContext, Application
from repro.blacs import ProcessGrid
from repro.cluster import MachineSpec
from repro.core import JobState, ReshapeFramework
from repro.workloads.paper import make_application


class CrashingApplication(Application):
    """Raises on a chosen iteration, on rank 0."""

    topology = "flat"

    def __init__(self, *, crash_at: int = 1, **kwargs):
        super().__init__(100, **kwargs)
        self.crash_at = crash_at
        self._count = 0

    @property
    def name(self) -> str:
        return "Crasher"

    def create_data(self, grid: ProcessGrid):
        return {}

    def legal_configs(self, max_procs, min_procs=1):
        return [(1, p) for p in range(max(2, min_procs), max_procs + 1)]

    def iterate(self, ctx: AppContext) -> Generator:
        yield from ctx.charge(1e6)
        if ctx.comm.rank == 0:
            self._count += 1
            if self._count > self.crash_at:
                raise RuntimeError("synthetic failure")


def test_crash_recovers_resources_and_marks_failed():
    fw = ReshapeFramework(num_processors=8,
                          machine_spec=MachineSpec(num_nodes=8), dynamic=False)
    job = fw.submit(CrashingApplication(crash_at=1, iterations=5),
                    config=(1, 4))
    fw.run()
    assert job.state == JobState.FAILED
    assert fw.pool.free_count == 8
    assert fw.monitor.failed == [job]


def test_crash_does_not_block_other_jobs():
    fw = ReshapeFramework(num_processors=8,
                          machine_spec=MachineSpec(num_nodes=8), dynamic=False)
    crasher = fw.submit(CrashingApplication(crash_at=0, iterations=5),
                        config=(1, 8), arrival=0.0)
    follower = fw.submit(LUApplication(480, block=48, iterations=2),
                         config=(2, 3), arrival=0.01)
    fw.run()
    assert crasher.state == JobState.FAILED
    assert follower.state == JobState.FINISHED
    # The follower started only after the crash freed the machine.
    assert follower.start_time >= crasher.end_time


def test_crash_recorded_on_timeline_as_error():
    """Failures record a distinct "error" ending, not a fake "finish"."""
    fw = ReshapeFramework(num_processors=8,
                          machine_spec=MachineSpec(num_nodes=8), dynamic=False)
    job = fw.submit(CrashingApplication(crash_at=1, iterations=5),
                    config=(1, 4))
    fw.run()
    reasons = [c.reason for c in fw.timeline.changes
               if c.job_id == job.job_id]
    assert reasons == ["start", "error"]
    assert fw.timeline.endings("finish") == []
    [ending] = fw.timeline.endings("error")
    # The ending still drops the allocation to zero so utilization math
    # is identical to a successful finish.
    assert ending.nprocs == 0
    assert 0.0 < fw.utilization() <= 1.0


def started_synthetic_job():
    """A closed-form job caught mid-run: its completion is still booked."""
    fw = ReshapeFramework(num_processors=8, dynamic=False)
    job = fw.submit(make_application("synthetic", 4000, iterations=1),
                    config=(1, 2))
    fw.run(until=1.0)
    assert job.state == JobState.RUNNING
    return fw, job


def endings_of(fw, job):
    return [c.reason for c in fw.timeline.changes
            if c.job_id == job.job_id and c.nprocs == 0]


def test_job_complete_after_error_keeps_the_error():
    fw, job = started_synthetic_job()
    fw.job_error(job, "synthetic failure")
    fw.job_complete(job)
    fw.run()  # the booked completion signals once more
    assert endings_of(fw, job) == ["error"]
    assert job.state == JobState.FAILED
    assert job.end_time == 1.0
    assert fw.monitor.failed == [job]
    assert fw.monitor.finished == []
    assert fw.pool.free_count == 8


def test_job_complete_twice_records_one_finish():
    fw, job = started_synthetic_job()
    fw.job_complete(job)
    fw.job_complete(job)
    fw.run()
    assert endings_of(fw, job) == ["finish"]
    assert job.state == JobState.FINISHED
    assert job.end_time == 1.0
    assert fw.monitor.finished == [job]
    assert fw.monitor.failed == []
    assert fw.pool.free_count == 8
