"""Timeline recording: the raw material of Figures 4 and 5.

The recorder stores configuration changes per job; from those it derives
the processor-allocation history of each job (Fig 4a/5a), the total
busy-processor curve (Fig 4b/5b) and the utilization percentage the
paper quotes (assigned cpu-seconds over available cpu-seconds).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class ConfigChange(NamedTuple):
    """One job's processor count changing at an instant."""

    time: float
    job_id: int
    job_name: str
    nprocs: int          # processor count after the change (0 = job done)
    config: Optional[tuple[int, int]]
    #: "start" | "expand" | "shrink" | "finish" | "error".  Both job
    #: endings drop nprocs to 0, so utilization math treats them alike;
    #: the reason keeps failures distinguishable from successes.
    reason: str


@dataclass
class JobTimeline:
    """Step function of one job's processor allocation over time."""

    job_id: int
    job_name: str
    points: list[tuple[float, int]] = field(default_factory=list)

    def add(self, time: float, nprocs: int) -> None:
        if self.points and self.points[-1][0] == time:
            self.points[-1] = (time, nprocs)
        else:
            self.points.append((time, nprocs))

    def nprocs_at(self, time: float) -> int:
        """Allocation at ``time`` (0 before start / after finish)."""
        if not self.points or time < self.points[0][0]:
            return 0
        idx = bisect.bisect_right([t for t, _ in self.points], time) - 1
        return self.points[idx][1]

    @property
    def start(self) -> float:
        return self.points[0][0] if self.points else 0.0

    @property
    def end(self) -> float:
        return self.points[-1][0] if self.points else 0.0

    def cpu_seconds(self) -> float:
        """Integral of the allocation step function."""
        total = 0.0
        for (t0, n0), (t1, _n1) in zip(self.points, self.points[1:]):
            total += n0 * (t1 - t0)
        return total


class TimelineRecorder:
    """Collects :class:`ConfigChange` events for a whole experiment.

    ``record`` also keeps each job's allocation integral running, so
    :meth:`utilization` and :meth:`makespan` never rebuild the
    timelines.  The integral adds the same terms in the same order as
    :meth:`JobTimeline.cpu_seconds`, so both paths agree bit for bit.
    """

    def __init__(self):
        self.changes: list[ConfigChange] = []
        #: job_id -> [last time, nprocs at it, cpu-seconds before it].
        self._running: dict[int, list] = {}
        self._first = self._last = 0.0

    def record(self, time: float, job_id: int, job_name: str, nprocs: int,
               config: Optional[tuple[int, int]], reason: str) -> None:
        """Append one change; a job's times must not go backwards."""
        run = self._running.get(job_id)
        if run is None:
            self._running[job_id] = [time, nprocs, 0.0]
        elif time == run[0]:
            run[1] = nprocs
        elif time > run[0]:
            run[2] += run[1] * (time - run[0])
            run[0], run[1] = time, nprocs
        else:
            raise ValueError(f"job {job_id} recorded at {time} after "
                             f"{run[0]}")
        if not self.changes:
            self._first = self._last = time
        elif time < self._first:
            self._first = time
        elif time > self._last:
            self._last = time
        self.changes.append(ConfigChange(time, job_id, job_name, nprocs,
                                         config, reason))

    def endings(self, reason: str) -> list[ConfigChange]:
        """Job-ending events of one kind: ``"finish"`` or ``"error"``."""
        return [c for c in self.changes if c.reason == reason]

    # -- derived series ------------------------------------------------------
    def job_timelines(self) -> dict[int, JobTimeline]:
        out: dict[int, JobTimeline] = {}
        for ch in sorted(self.changes, key=lambda c: c.time):
            tl = out.setdefault(ch.job_id,
                                JobTimeline(ch.job_id, ch.job_name))
            tl.add(ch.time, ch.nprocs)
        return out

    def busy_processors(self) -> list[tuple[float, int]]:
        """Total allocated processors as a step function over time."""
        deltas: dict[float, int] = {}
        for tl in self.job_timelines().values():
            prev = 0
            for t, n in tl.points:
                deltas[t] = deltas.get(t, 0) + (n - prev)
                prev = n
        series = []
        level = 0
        for t in sorted(deltas):
            level += deltas[t]
            series.append((t, level))
        return series

    def makespan(self) -> float:
        return self._last - self._first

    def utilization(self, total_processors: int,
                    horizon: Optional[float] = None) -> float:
        """Assigned cpu-seconds over available cpu-seconds (paper's metric)."""
        if total_processors <= 0:
            return 0.0
        span = horizon if horizon is not None else self.makespan()
        if span <= 0:
            return 0.0
        busy = sum(run[2] for run in self._running.values())
        return busy / (total_processors * span)
