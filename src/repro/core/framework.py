"""The ReSHAPE framework: wiring of scheduler, monitor, pool and jobs.

One object owns a simulated machine and runs a whole experiment:

    fw = ReshapeFramework(num_processors=36)
    fw.submit(LUApplication(21000), config=(2, 3), arrival=0.0)
    fw.submit(JacobiApplication(8000), config=(4, 1), arrival=465.0)
    fw.run()

With ``dynamic=False`` the identical machinery performs the paper's
*static scheduling* baseline (every remap decision is "no change"), so
Table 4/5 comparisons are apples-to-apples.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.apps.base import Application
from repro.blacs import ProcessGrid
from repro.cluster.machine import Machine, MachineSpec
from repro.core.events import TimelineRecorder
from repro.core.job import Job, JobState
from repro.core.monitor import SystemMonitor
from repro.core.policies import (
    ExpansionPolicy,
    SweetSpotPolicy,
    resolve_expansion,
    resolve_sweet_spot,
)
from repro.core.pool import ProcessorPool, ReservationLedger
from repro.core.profiler import PerformanceProfiler
from repro.core.queue import make_job_queue
from repro.core.remap import RemapDecision, RemapScheduler
from repro.mpi import World
from repro.simulate import Environment


class ReshapeFramework:
    """Application scheduling and monitoring module (paper §3.1)."""

    def __init__(self, *,
                 env: Optional[Environment] = None,
                 machine_spec: Optional[MachineSpec] = None,
                 machine: Optional[Machine] = None,
                 num_processors: Optional[int] = None,
                 dynamic: bool = True,
                 backfill: bool = True,
                 scheduler: str = "indexed",
                 direct_execution: bool = True,
                 sweet_spot: Union[SweetSpotPolicy, str, None] = None,
                 expansion: Union[ExpansionPolicy, str, None] = None,
                 redistribution_method: str = "reshape",
                 rpc_latency: float = 2e-3):
        self.env = env or Environment()
        self.machine = machine or Machine(self.env,
                                          machine_spec or MachineSpec())
        total = num_processors or self.machine.total_processors
        if total > self.machine.total_processors:
            raise ValueError("num_processors exceeds the machine")
        self.pool = ProcessorPool(total)
        #: ``"indexed"`` (size-indexed queue + reservation ledger) or
        #: ``"scan"`` (the seed's O(n)-per-wake scan) — decisions are
        #: identical, only the wake cost differs.
        self.queue = make_job_queue(scheduler, backfill=backfill)
        self.ledger = ReservationLedger(self.pool)
        self.profiler = PerformanceProfiler()
        self.remap = RemapScheduler(self.pool, self.queue, self.profiler,
                                    max_procs=total, dynamic=dynamic,
                                    sweet_spot=resolve_sweet_spot(sweet_spot),
                                    expansion=resolve_expansion(expansion),
                                    ledger=self.ledger)
        self.monitor = SystemMonitor(self.pool,
                                     on_resources_freed=self._wake)
        self.world = World(self.env, self.machine)
        self.timeline = TimelineRecorder()
        self.dynamic = dynamic
        if redistribution_method not in ("reshape", "checkpoint"):
            raise ValueError(f"unknown redistribution method "
                             f"{redistribution_method!r}")
        self.redistribution_method = redistribution_method
        #: Book jobs that report a closed-form runtime as one completion
        #: event instead of launching rank processes (the scheduler-scale
        #: analogue of the phantom fast paths; only applications with no
        #: communication and no resize points qualify — see
        #: ``Application.closed_form_duration``).
        self.direct_execution = direct_execution
        #: Cost of one application <-> scheduler message exchange.
        self.rpc_latency = rpc_latency
        self.jobs: list[Job] = []
        #: The Application Scheduler is handler-table driven, not a
        #: generator process: arrivals, scheduling passes and direct
        #: completions are packed records jumping straight to the
        #: methods below (one queue tuple per hop, no Event objects, no
        #: generator-resume machinery on the per-job path).
        self._wake_pending = False
        self._h_arrival = self.env.register_handler(self._on_arrival)
        self._h_pass = self.env.register_handler(self._scheduler_pass)
        self._h_complete = self.env.register_handler(self._complete_direct)

    # ------------------------------------------------------------------
    # Submission and the Application Scheduler
    # ------------------------------------------------------------------
    def submit(self, app: Application, config: tuple[int, int], *,
               arrival: float = 0.0, name: Optional[str] = None,
               priority: int = 0) -> Job:
        """Submit ``app`` to arrive at ``arrival`` requesting ``config``."""
        job = Job(app=app, initial_config=tuple(config),
                  arrival_time=arrival, name=name, priority=priority)
        if job.requested_size > self.pool.total:
            raise ValueError(f"job {job.name} requests "
                             f"{job.requested_size} processors; the "
                             f"experiment has {self.pool.total}")
        self.jobs.append(job)
        # One packed record per arrival — not a per-job driver process.
        self.env.call_at(max(job.arrival_time, self.env.now),
                         self._h_arrival, job)
        return job

    def _on_arrival(self, job: Job) -> None:
        job.state = JobState.QUEUED
        self.queue.enqueue(job)
        self._wake()

    def _wake(self) -> None:
        """Book a scheduling pass — unless nothing can start.

        The filter is exact: a wake is useful only if some queued job
        fits the free processors (with simple backfill, that is ``min
        queued size <= free``).  Anything else would probe the queue and
        find nothing, so it is skipped; every state change that could
        flip the answer (arrival, release, shrink) comes back through
        here.
        """
        if self._wake_pending:
            return
        if not self.queue.can_start(self.pool.free_count):
            self.ledger.wakes_skipped += 1
            return
        self.ledger.wakes_taken += 1
        self._wake_pending = True
        self.env.call_at(self.env.now, self._h_pass, None)

    def _scheduler_pass(self, _arg) -> None:
        """One FCFS/backfill scheduling pass (the §3.1 scheduler body)."""
        self._wake_pending = False
        while True:
            job = self.queue.next_startable(self.pool.free_count)
            if job is None:
                break
            self._start_job(job)

    def _start_job(self, job: Job) -> None:
        """Job Startup: allocate, build data, launch rank processes."""
        self.queue.remove(job)
        processors = self.pool.allocate(job.requested_size, job.job_id)
        job.processors = processors
        job.config = job.initial_config
        job.state = JobState.RUNNING
        job.start_time = self.env.now
        grid = ProcessGrid(*job.initial_config)
        data = job.app.create_data(grid)
        job.data.clear()
        job.data.update(data)
        self.monitor.job_started(job)
        self.timeline.record(self.env.now, job.job_id, job.name,
                             job.requested_size, job.config, "start")
        # Closed-form booking must never bypass a live resize decision:
        # a multi-iteration job under dynamic scheduling hits resize
        # points that can change its allocation, so only jobs that
        # cannot be resized (single iteration, or static scheduling
        # where every decision is "no change") qualify.
        if self.direct_execution and \
                (job.app.iterations <= 1 or not self.dynamic):
            duration = job.app.closed_form_duration(job.initial_config,
                                                    self.machine)
            if duration is not None:
                self.env.call_at(self.env.now + duration,
                                 self._h_complete, job)
                return
        from repro.api.resize import resizable_main
        self.world.launch(resizable_main, processors=processors,
                          args=(self, job), name=job.name)

    def _complete_direct(self, job: Job) -> None:
        """Completion of a closed-form job (no rank processes ran)."""
        job.iterations_done = job.app.iterations
        self.job_complete(job)

    # ------------------------------------------------------------------
    # Callbacks from the resizing library (rank 0 of each job)
    # ------------------------------------------------------------------
    def remap_request(self, job: Job, iteration_time: float,
                      redistribution_time: float) -> RemapDecision:
        """Resize-point report -> decision (Remap Scheduler)."""
        return self.remap.decide(job, iteration_time, redistribution_time,
                                 now=self.env.now)

    def notify_resized(self, job: Job, old_config: tuple[int, int],
                       new_config: tuple[int, int], action: str, *,
                       nbytes_payload: int, nbytes_moved: int,
                       elapsed: float,
                       added: Optional[list[int]] = None) -> None:
        """Resize completed: update ownership, history and the timeline.

        ``nbytes_payload`` is the total payload of the redistributed
        arrays; ``nbytes_moved`` the bytes that actually crossed the
        wire (local copies excluded) — the profiler keeps both so cost
        prediction can use real traffic instead of a modelled fraction.
        """
        self.profiler.record_resize(job.job_id, action, old_config,
                                    new_config, nbytes_payload, elapsed,
                                    when=self.env.now,
                                    bytes_moved=nbytes_moved)
        job.redistribution_time += elapsed
        new_size = new_config[0] * new_config[1]
        if action == "expand":
            assert added is not None
            job.processors = job.processors + list(added)
        else:
            freed = job.processors[new_size:]
            job.processors = job.processors[:new_size]
            if freed:
                self.pool.release(freed, job.job_id)
        job.config = tuple(new_config)
        self.timeline.record(self.env.now, job.job_id, job.name,
                             new_size, job.config, action)
        if action == "shrink":
            self._wake()

    def job_complete(self, job: Job) -> None:
        """Job-end signal from the application monitor.

        Idempotent like :meth:`job_error`: a job that already ended
        (finished or failed) keeps its first ending.
        """
        if job.job_id not in self.monitor.running:
            return
        self.timeline.record(self.env.now, job.job_id, job.name, 0,
                             None, "finish")
        self.monitor.job_ended(job, self.env.now)

    def job_error(self, job: Job, error: str) -> None:
        """Job-error signal: delete the job, recover its resources.

        Idempotent: several ranks of a failing job (parents and spawned
        children alike) may all report; only the first signal acts.  The
        timeline records a distinct ``"error"`` event (processor count 0,
        so utilization accounting matches ``"finish"``).
        """
        if job.job_id not in self.monitor.running:
            return
        self.timeline.record(self.env.now, job.job_id, job.name, 0,
                             None, "error")
        self.monitor.job_failed(job, self.env.now, error=error)

    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, spec) -> "ReshapeFramework":
        """Build a framework from a declarative ScenarioSpec.

        Delegates to the sweep resolver so every construction path —
        CLI, benchmarks, library callers — shares one description.
        (Lazy import: ``repro.sweep`` depends on this module.)
        """
        from repro.sweep.resolver import build_framework
        return build_framework(spec)

    def run(self, until: Optional[float] = None) -> None:
        """Run the experiment to completion (or to ``until``)."""
        self.env.run(until=until)

    # -- result accessors ---------------------------------------------------
    def turnaround_times(self) -> dict[str, float]:
        out = {}
        for job in self.jobs:
            if job.turnaround is not None:
                out[job.name] = job.turnaround
        return out

    def utilization(self) -> float:
        return self.timeline.utilization(self.pool.total)
