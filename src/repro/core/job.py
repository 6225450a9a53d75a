"""Jobs: one submitted application run and its lifecycle state."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.apps.base import Application

_job_ids = itertools.count(1)


def reset_job_ids(start: int = 1) -> None:
    """Restart the process-global job-id counter.

    Job ids are only required to be unique within one experiment, but
    they appear in recorded timelines — so two runs of the same
    scenario produce bit-identical timelines only if both start from
    the same counter.  The sweep resolver calls this at scenario entry,
    making ``run_scenario`` a pure function of its spec regardless of
    how many experiments the hosting process ran before (single-threaded
    simulation; never call it while a framework is mid-run).
    """
    global _job_ids
    _job_ids = itertools.count(start)


class JobState(enum.Enum):
    PENDING = "pending"        # submitted, not yet arrived
    QUEUED = "queued"          # waiting for processors
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(slots=True)
class Job:
    """A submitted application plus its scheduling state.

    ``initial_config`` is what the user requested at submission; the
    *current* configuration changes over the job's life under dynamic
    resizing.  ``data`` holds the application's global data structures
    (shared across ranks; swapped wholesale at each redistribution).
    """

    app: Application
    initial_config: tuple[int, int]
    arrival_time: float = 0.0
    name: Optional[str] = None
    #: Scheduling priority (higher starts first); the QoS hook the paper
    #: lists among its motivations ("accommodate higher priority jobs").
    priority: int = 0
    job_id: int = field(default_factory=lambda: next(_job_ids))

    # -- runtime state, owned by the framework ---------------------------
    state: JobState = JobState.PENDING
    config: Optional[tuple[int, int]] = None
    processors: list[int] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)
    iterations_done: int = 0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Redistribution seconds accumulated over the job's life.
    redistribution_time: float = 0.0
    #: (iteration, config, iteration_time, redistribution_time) records
    #: appended by the resizing library's ``log`` call (Fig 3a's columns).
    iteration_log: list[tuple] = field(default_factory=list)
    #: Set while a resize is being executed (spawn/redistribute window).
    resizing: bool = False

    def __post_init__(self):
        if self.name is None:
            self.name = f"{self.app.name}#{self.job_id}"
        pr, pc = self.initial_config
        if pr < 1 or pc < 1:
            raise ValueError(f"bad initial config {self.initial_config}")

    @property
    def size(self) -> int:
        """Current processor count (0 if not running)."""
        if self.config is None:
            return 0
        return self.config[0] * self.config[1]

    @property
    def requested_size(self) -> int:
        return self.initial_config[0] * self.initial_config[1]

    @property
    def turnaround(self) -> Optional[float]:
        """Arrival-to-completion time, once finished."""
        if self.end_time is None:
            return None
        return self.end_time - self.arrival_time

    def __repr__(self) -> str:
        return (f"<Job {self.name} {self.state.value} "
                f"config={self.config}>")
