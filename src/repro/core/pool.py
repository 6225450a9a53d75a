"""The machine's processor pool as the scheduler sees it, and the
reservation ledger the remap scheduler keeps over it."""

from __future__ import annotations

from typing import Optional


class ProcessorPool:
    """Tracks which machine processors are free versus assigned to jobs.

    The pool hands out the lowest-numbered free processors (the paper's
    cluster is homogeneous, so identity only matters for node mapping),
    and supports partial release for shrink operations.
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError("pool must have at least one processor")
        self.total = total
        self._free: set[int] = set(range(total))
        self._held: dict[int, set[int]] = {}  # job_id -> its processors

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self.total - len(self._free)

    def free_processors(self) -> list[int]:
        return sorted(self._free)

    def owner_of(self, processor: int) -> Optional[int]:
        return next((job_id for job_id, held in self._held.items()
                     if processor in held), None)

    def processors_of(self, job_id: int) -> list[int]:
        return sorted(self._held.get(job_id, ()))

    def allocate(self, count: int, job_id: int) -> list[int]:
        """Take ``count`` free processors for ``job_id``."""
        if count < 0:
            raise ValueError("negative allocation")
        if count > len(self._free):
            raise RuntimeError(f"allocation of {count} processors with "
                               f"only {len(self._free)} free")
        chosen = sorted(self._free)[:count]
        self._free.difference_update(chosen)
        self._held.setdefault(job_id, set()).update(chosen)
        return chosen

    def release(self, processors: list[int], job_id: int) -> None:
        """Return specific processors held by ``job_id`` to the pool."""
        held = self._held.get(job_id, set())
        for p in processors:
            if p not in held:
                raise RuntimeError(f"processor {p} not held by job "
                                   f"{job_id}")
            held.remove(p)
            self._free.add(p)
        if not held:
            self._held.pop(job_id, None)

    def release_all(self, job_id: int) -> list[int]:
        """Return everything ``job_id`` holds; returns what was freed."""
        held = self.processors_of(job_id)
        self.release(held, job_id)
        return held


class ReservationLedger:
    """Reservation-style bookkeeping for the remap scheduler.

    When the queue head cannot start, the ledger records its claim on
    the idle processors: how many of the free processors the head will
    take (``reserved``) and how many more must come free before it can
    start (``shortfall``).  The remap scheduler refreshes it before
    every read, and has two consumers:

    * The shrink-for-queue rule — the shortfall *is*
      ``queue.needed_for_head(free)``, the processors a running job
      must give up for the head to start.
    * The expansion path — processors under the head's claim are not
      "idle" for expansion purposes (:meth:`available_for_expansion`).
      This never changes a decision — the paper only expands when the
      queue is empty, and an empty queue holds no reservation — but it
      keeps the invariant explicit instead of coincidental.

    The framework's wake filter asks the queue (``can_start``), not the
    ledger; the ledger only counts the wakes it takes and skips.  Every
    decision still comes from the queue and pool state, so scan and
    indexed schedulers stay bit-identical
    (``tests/test_scheduler_indexed.py``).
    """

    def __init__(self, pool: ProcessorPool):
        self.pool = pool
        #: job_id of the blocked queue head, or None.
        self.holder: Optional[int] = None
        #: Free processors the blocked head has claimed.
        self.reserved = 0
        #: Additional processors the head needs before it can start.
        self.shortfall = 0
        #: Wake-filter statistics (reported by the engine benchmark).
        self.wakes_taken = 0
        self.wakes_skipped = 0

    def refresh(self, queue, free: int) -> int:
        """Re-derive the head's claim from current state; returns the
        shortfall (0 when the head fits or the queue is empty)."""
        head = queue.head()
        if head is None:
            self.clear()
            return 0
        need = head.requested_size
        self.holder = head.job_id
        self.reserved = min(free, need)
        self.shortfall = max(0, need - free)
        return self.shortfall

    def clear(self) -> None:
        self.holder = None
        self.reserved = 0
        self.shortfall = 0

    def available_for_expansion(self, free: int) -> int:
        """Idle processors not spoken for by the blocked head's claim."""
        if self.holder is None:
            return free
        return max(0, free - self.reserved)
