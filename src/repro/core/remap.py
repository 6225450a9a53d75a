"""Remap Scheduler: the expand/shrink decision engine of §3.1.

Decision rules, verbatim from the paper:

Expand when
  1. there are idle processors in the system, and
  2. there are no jobs waiting to be scheduled on the idle processors, and
  3. there has been an improvement in the iteration time due to a
     previous expansion or the job has never been expanded.

Shrink when the job has previously run on a smaller processor set and
  1. at the last resize point the application expanded to a size that
     did not provide any performance benefit (shrink back), or
  2. there are applications waiting in the queue: if the job can free
     enough processors to start the next queued job it shrinks just that
     far; otherwise it shrinks to its smallest shrink point (its
     starting processor set) and waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.job import Job
from repro.core.policies import ExpansionPolicy, SweetSpotPolicy
from repro.core.pool import ProcessorPool, ReservationLedger
from repro.core.profiler import PerformanceProfiler


@dataclass
class RemapDecision:
    """What the scheduler told a job at a resize point."""

    action: str                                   # "expand"|"shrink"|"none"
    new_config: Optional[tuple[int, int]] = None
    #: For expansions: machine processors granted (already reserved).
    added_processors: list[int] = field(default_factory=list)


class RemapScheduler:
    """Evaluates resize requests against pool, queue and profiler state."""

    def __init__(self, pool: ProcessorPool, queue,
                 profiler: PerformanceProfiler, *,
                 max_procs: Optional[int] = None,
                 dynamic: bool = True,
                 sweet_spot: Optional[SweetSpotPolicy] = None,
                 expansion: Optional[ExpansionPolicy] = None,
                 ledger: Optional[ReservationLedger] = None):
        self.pool = pool
        self.queue = queue
        self.profiler = profiler
        self.max_procs = max_procs or pool.total
        self.dynamic = dynamic
        self.sweet_spot = sweet_spot or SweetSpotPolicy()
        self.expansion = expansion or ExpansionPolicy()
        self.ledger = ledger or ReservationLedger(pool)
        self.decisions: list[tuple[float, int, RemapDecision]] = []

    def decide(self, job: Job, iteration_time: float,
               redistribution_time: float, now: float) -> RemapDecision:
        """Process one resize-point report and return the verdict."""
        assert job.config is not None
        self.profiler.record_iteration(job.job_id, job.config,
                                       iteration_time)
        decision = self._decide_inner(job)
        self.decisions.append((now, job.job_id, decision))
        return decision

    # ------------------------------------------------------------------
    def _decide_inner(self, job: Job) -> RemapDecision:
        if not self.dynamic:
            return RemapDecision(action="none")
        current = job.config
        assert current is not None
        # Bring the reservation ledger up to date with the queue head's
        # claim before judging idle capacity.
        self.ledger.refresh(self.queue, self.pool.free_count)

        # -- shrink rule 1: last expansion did not pay ------------------
        if self.sweet_spot.expansion_regretted(self.profiler, job.job_id,
                                               current):
            prev = self.profiler.previous_config(job.job_id)
            if prev is not None and _size(prev) < _size(current):
                return RemapDecision(action="shrink", new_config=prev)

        # -- shrink rule 2: queued jobs need processors ------------------
        if not self.queue.empty:
            return self._shrink_for_queue(job, current)

        # -- expansion ---------------------------------------------------
        # Idle processors net of the ledger's head reservation (always
        # equal to free_count here: the queue is empty, so no head holds
        # a claim — the ledger keeps that invariant explicit).
        idle = self.ledger.available_for_expansion(self.pool.free_count)
        if idle > 0 and self.queue.empty and \
                self.sweet_spot.expansion_worthwhile(self.profiler,
                                                     job.job_id, current):
            configs = job.app.legal_configs(self.max_procs)
            target = self.expansion.choose(configs, current, idle,
                                           reserved=self.ledger.reserved)
            if target is not None:
                added = self.pool.allocate(_size(target) - _size(current),
                                           job.job_id)
                return RemapDecision(action="expand", new_config=target,
                                     added_processors=added)
        return RemapDecision(action="none")

    def _shrink_for_queue(self, job: Job,
                          current: tuple[int, int]) -> RemapDecision:
        # refresh() re-derives the head's claim from current queue/pool
        # state and returns the shortfall (== needed_for_head) — no
        # reliance on an earlier refresh having run.
        needed = self.ledger.refresh(self.queue, self.pool.free_count)
        if needed <= 0:
            # Head already fits; let the application scheduler start it.
            return RemapDecision(action="none")
        points = self.profiler.shrink_points(job.job_id, current)
        if not points:
            return RemapDecision(action="none")
        # Smallest sacrifice that frees enough for the queued job...
        for point in points:  # sorted by processors_freed ascending
            if point.processors_freed >= needed:
                return RemapDecision(action="shrink",
                                     new_config=point.config)
        # ...otherwise give up everything down to the starting set.
        deepest = max(points, key=lambda sp: sp.processors_freed)
        return RemapDecision(action="shrink", new_config=deepest.config)


def _size(config: tuple[int, int]) -> int:
    return config[0] * config[1]
