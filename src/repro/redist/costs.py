"""Recorded redistribution costs.

"...with ReSHAPE we save a record of actual redistribution costs between
various processor configurations, which allows for more informed
decisions."  (§4.1.2)

:class:`RedistributionCostLog` is that record: the profiler appends one
:class:`RedistributionRecord` per resize of a job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class RedistributionRecord:
    """One observed redistribution.

    ``nbytes`` is the total payload of the redistributed arrays;
    ``bytes_moved`` the wire traffic actually observed (None for legacy
    records, which predate the distinction).
    """

    from_config: tuple[int, int]
    to_config: tuple[int, int]
    nbytes: int
    elapsed: float
    when: float
    bytes_moved: Optional[int] = None


@dataclass
class RedistributionCostLog:
    """History of redistribution costs, in the order they happened."""

    records: list[RedistributionRecord] = field(default_factory=list)

    def record(self, from_config: tuple[int, int], to_config: tuple[int, int],
               nbytes: int, elapsed: float, when: float,
               bytes_moved: Optional[int] = None) -> None:
        self.records.append(RedistributionRecord(
            from_config=tuple(from_config), to_config=tuple(to_config),
            nbytes=nbytes, elapsed=elapsed, when=when,
            bytes_moved=bytes_moved))
