"""Job queue with FCFS and simple backfill.

"Our current implementation supports two basic resource allocation
policies, First Come First Served (FCFS) and simple backfill."  (§3.1)

Two implementations, one decision contract:

:class:`JobQueue`
    Size-indexed: jobs bucket by requested processor count, each bucket
    a priority heap on the FCFS key ``(-priority, arrival seq)`` whose
    live minimum is cached per size.  A wake probe (``next_startable``)
    is one ``min`` over the cached heads of the sizes that fit —
    bounded by the machine's processor count, not the queue population.
    O(log n) per enqueue; removal is lazy and re-derives a class head
    only when it removes that head.

:class:`ScanJobQueue`
    The seed implementation — an arrival-ordered deque with an O(n)
    scan per probe.  Kept as the reference: both queues must return the
    *identical* job for every probe sequence (the FCFS/backfill rule is
    "first job in (priority desc, arrival) order that fits"), guarded
    by ``tests/test_scheduler_indexed.py``.

Backfill stays *simple* backfill (no starvation reservation for the
head — the paper's prototype): the head's claim on idle processors
lives in :class:`repro.core.pool.ReservationLedger`, which never
changes a decision.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import Iterator, Optional

from repro.core.job import Job


class JobQueue:
    """Size-indexed queue of jobs waiting for processors."""

    def __init__(self, *, backfill: bool = True):
        self.backfill = backfill
        self._seq = 0
        #: requested size -> heap of (-priority, seq, job); entries whose
        #: key no longer matches ``_entries`` are stale (lazy deletion).
        self._classes: dict[int, list[tuple[int, int, Job]]] = {}
        #: Sorted distinct sizes with at least one live job.
        self._sizes: list[int] = []
        #: job_id -> (-priority, seq, job) for every queued job.
        self._entries: dict[int, tuple[int, int, Job]] = {}
        #: requested size -> live minimum entry of that class.
        self._heads: dict[int, tuple[int, int, Job]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Job]:
        """Jobs in queue order: priority descending, then arrival."""
        for _negpri, _seq, job in sorted(self._entries.values()):
            yield job

    @property
    def empty(self) -> bool:
        return not self._entries

    def enqueue(self, job: Job) -> None:
        """Insert preserving (priority desc, arrival order).

        Equal-priority jobs stay FCFS; a higher-priority job jumps ahead
        of lower-priority ones but never ahead of its equals.  The
        position is fixed at enqueue time (as in the seed queue): a
        priority changed while queued does not re-sort the job.
        """
        if job.job_id in self._entries:
            raise ValueError(f"job {job.name} is already queued")
        self._seq += 1
        entry = (-job.priority, self._seq, job)
        size = job.requested_size
        self._entries[job.job_id] = entry
        heappush(self._classes.setdefault(size, []), entry)
        head = self._heads.get(size)
        if head is None:
            insort(self._sizes, size)
        # ``seq`` is unique, so key comparisons never reach the Job.
        if head is None or entry < head:
            self._heads[size] = entry

    def head(self) -> Optional[Job]:
        """The job FCFS would start next (min key over every class)."""
        return min(self._heads.values())[2] if self._heads else None

    def next_startable(self, free: int) -> Optional[Job]:
        """The next job that can start on ``free`` processors.

        FCFS: only the head may start.  With backfill, the earliest
        queued job small enough for the free processors may jump ahead
        (simple backfill — no reservation bookkeeping, as in the
        paper's prototype).  That is the minimum over the heads of the
        fitting classes: when the FCFS head fits, it is that minimum.
        """
        if self.backfill:
            fitting = self._sizes[:bisect_right(self._sizes, free)]
            if not fitting:
                return None
            return min(map(self._heads.__getitem__, fitting))[2]
        head = self.head()
        if head is not None and head.requested_size <= free:
            return head
        return None

    def remove(self, job: Job) -> None:
        entry = self._entries.pop(job.job_id, None)
        if entry is None:
            raise ValueError(f"job {job.name} is not queued")
        size = job.requested_size
        if self._heads[size] is not entry:
            return  # The class heap keeps a stale entry (lazy deletion).
        # Only removing its head can empty a class.
        head = self._class_head(size)
        if head is not None:
            self._heads[size] = head
        else:
            del self._classes[size]
            del self._heads[size]
            self._sizes.remove(size)

    def needed_for_head(self, free: int) -> int:
        """Extra processors the head job needs beyond what is free."""
        head = self.head()
        if head is None:
            return 0
        return max(0, head.requested_size - free)

    def min_requested_size(self) -> Optional[int]:
        """Smallest processor request queued, or None when empty."""
        return self._sizes[0] if self._sizes else None

    def can_start(self, free: int) -> bool:
        """Would ``next_startable(free)`` find a job?  O(1)-ish probe
        used by the scheduler's wake filter: with backfill any job small
        enough qualifies; strict FCFS needs the head itself to fit."""
        if not self._entries:
            return False
        if self.backfill:
            return self._sizes[0] <= free
        head = self.head()
        return head is not None and head.requested_size <= free

    def _class_head(self, size: int) -> Optional[tuple[int, int, Job]]:
        """Live minimum of one class, discarding stale heap entries;
        None once the class holds no live entry."""
        heap = self._classes[size]
        entries = self._entries
        while heap:
            entry = heap[0]
            if entries.get(entry[2].job_id) is entry:
                return entry
            heappop(heap)
        return None


class ScanJobQueue:
    """Arrival-ordered deque with O(n) probes (the seed implementation).

    Reference for :class:`JobQueue` — same API, same decisions, linear
    cost.  The engine benchmark's "heap path" leg schedules through
    this queue.
    """

    def __init__(self, *, backfill: bool = True):
        self.backfill = backfill
        self._queue: deque[Job] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    def enqueue(self, job: Job) -> None:
        idx = len(self._queue)
        for i, queued in enumerate(self._queue):
            if queued.priority < job.priority:
                idx = i
                break
        self._queue.insert(idx, job)

    def head(self) -> Optional[Job]:
        return self._queue[0] if self._queue else None

    def next_startable(self, free: int) -> Optional[Job]:
        if not self._queue:
            return None
        head = self._queue[0]
        if head.requested_size <= free:
            return head
        if self.backfill:
            # O(queue length) scan per wake, without copying the deque.
            for job in islice(self._queue, 1, None):
                if job.requested_size <= free:
                    return job
        return None

    def remove(self, job: Job) -> None:
        self._queue.remove(job)

    def needed_for_head(self, free: int) -> int:
        head = self.head()
        if head is None:
            return 0
        return max(0, head.requested_size - free)

    def min_requested_size(self) -> Optional[int]:
        if not self._queue:
            return None
        return min(job.requested_size for job in self._queue)

    def can_start(self, free: int) -> bool:
        return self.next_startable(free) is not None


def make_job_queue(scheduler: str, *, backfill: bool = True):
    """Factory: ``"indexed"`` (default) or ``"scan"`` (seed reference)."""
    if scheduler == "indexed":
        return JobQueue(backfill=backfill)
    if scheduler == "scan":
        return ScanJobQueue(backfill=backfill)
    raise ValueError(f"unknown scheduler queue {scheduler!r}")
