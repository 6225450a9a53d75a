"""Table-based index computation for block-cyclic redistribution.

For a 1-D block-cyclic layout with the *same block size* on both sides —
ReSHAPE's situation, where only the processor count changes — global
block ``g`` lives on source process ``g mod P`` and must end on
destination process ``g mod Q``.  The pair ``(g mod P, g mod Q)`` is
periodic in ``g`` with period ``L = lcm(P, Q)``, and the map from
``g mod L`` to the pair is a bijection (CRT).  Each residue class modulo
``L`` is therefore one *communication class*: a (source, destination)
pair plus the arithmetic progression of blocks it carries.  Classes are
what the destination-processor table of the paper tabulates, and each
class becomes a single aggregated message on the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class BlockClass:
    """One communication class of a 1-D redistribution.

    ``blocks`` is the arithmetic progression ``phase, phase+L, ...`` of
    global block indices below ``nblocks``.
    """

    src: int
    dst: int
    phase: int          # class representative: g ≡ phase (mod L)
    period: int         # L = lcm(P, Q)
    nblocks: int        # total global blocks

    @property
    def blocks(self) -> tuple[int, ...]:
        return tuple(range(self.phase, self.nblocks, self.period))

    @property
    def count(self) -> int:
        if self.phase >= self.nblocks:
            return 0
        return 1 + (self.nblocks - 1 - self.phase) // self.period


def crt_block_classes(nblocks: int, P: int, Q: int) -> list[BlockClass]:
    """All non-empty communication classes for a P -> Q redistribution.

    Classes are returned in phase order (0..L-1), skipping phases with no
    blocks.  Classes where ``src`` and ``dst`` denote the same retained
    process are *not* skipped here — whether a class is a local copy
    depends on the physical processor mapping, which the driver knows.
    """
    if nblocks < 0 or P < 1 or Q < 1:
        raise ValueError("bad redistribution parameters")
    L = math.lcm(P, Q)
    classes = []
    for phase in range(min(L, nblocks)):
        classes.append(BlockClass(src=phase % P, dst=phase % Q,
                                  phase=phase, period=L, nblocks=nblocks))
    return classes


def build_class_table(nblocks: int, P: int, Q: int) -> dict:
    """The paper's three tables, as one structure for inspection.

    Returns ``{"initial": ..., "final": ..., "destination": ...}`` where
    ``initial[g]`` is the source process of block ``g``, ``final[g]`` the
    destination process, and ``destination[(src, step_row)]`` the
    destination-processor table entry — the processor that ``src`` sends
    to in communication step ``step_row`` (None when idle).  This mirrors
    the paper's tabular presentation; the executable schedule is built in
    :mod:`repro.redist.schedule`.
    """
    from repro.redist.schedule import build_1d_schedule

    initial = [g % P for g in range(nblocks)]
    final = [g % Q for g in range(nblocks)]
    schedule = build_1d_schedule(nblocks, P, Q)
    destination: dict[tuple[int, int], int | None] = {}
    for step_idx, step in enumerate(schedule.steps):
        by_src = {msg.src: msg.dst for msg in step}
        for src in range(P):
            destination[(src, step_idx)] = by_src.get(src)
    return {"initial": initial, "final": final, "destination": destination}


# ---------------------------------------------------------------------------
# schedule / byte-count caches (redistribution hot path)
#
# A job hits the same resize points over and over (expand 4 -> 6, shrink
# 6 -> 4, ...), and every experiment reuses a handful of (grid, layout)
# pairs.  Schedules and message byte counts depend only on small hashable
# keys, so LRU caches turn the per-resize rebuild into a lookup.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def cached_2d_schedule(row_blocks: int, col_blocks: int,
                       src_grid: tuple[int, int],
                       dst_grid: tuple[int, int]):
    """Memoized :func:`repro.redist.schedule.build_2d_schedule`.

    The returned :class:`Schedule2D` is shared — treat it as read-only.
    """
    from repro.redist.schedule import build_2d_schedule

    return build_2d_schedule(row_blocks, col_blocks, src_grid, dst_grid)


@lru_cache(maxsize=8192)
def blocks_extent(n: int, nb: int, blocks: tuple[int, ...]) -> int:
    """Total element extent of global ``blocks`` (short/overflowing blocks
    clipped), vectorized and cached per distinct block tuple."""
    arr = np.asarray(blocks, dtype=np.int64)
    return int(np.clip(n - arr * nb, 0, nb).sum())


def message_nbytes(m: int, n: int, mb: int, nb: int, itemsize: int,
                   msg) -> int:
    """Payload bytes of a :class:`Message2D` — the cross product of its
    row and column block extents."""
    return (blocks_extent(m, mb, msg.row_blocks) *
            blocks_extent(n, nb, msg.col_blocks) * itemsize)


def schedule_traffic(schedule, src_grid, dst_grid, m: int, n: int,
                     mb: int, nb: int, itemsize: int) -> tuple[int, int]:
    """``(wire_bytes, local_bytes)`` of an arbitrary 2-D schedule.

    ``wire_bytes`` is what actually crosses the network summed over every
    rank (source and destination communicator ranks differ);
    ``local_bytes`` is the volume of messages-to-self (rank kept its
    data — a memory copy, never network traffic).  Both grids embed
    row-major into the communicator, exactly as the driver routes
    messages (``ProcessGrid.rank_of``).
    """
    wire = 0
    local = 0
    for msg in schedule.messages:
        nbytes = message_nbytes(m, n, mb, nb, itemsize, msg)
        if src_grid.rank_of(*msg.src) == dst_grid.rank_of(*msg.dst):
            local += nbytes
        else:
            wire += nbytes
    return wire, local


@lru_cache(maxsize=256)
def cached_2d_traffic(row_blocks: int, col_blocks: int,
                      src_grid: tuple[int, int], dst_grid: tuple[int, int],
                      m: int, n: int, mb: int, nb: int,
                      itemsize: int) -> tuple[int, int]:
    """Memoized :func:`schedule_traffic` of the cached default schedule."""
    from repro.blacs.grid import ProcessGrid

    schedule = cached_2d_schedule(row_blocks, col_blocks,
                                  src_grid, dst_grid)
    return schedule_traffic(schedule, ProcessGrid(*src_grid),
                            ProcessGrid(*dst_grid), m, n, mb, nb,
                            itemsize)


# ---------------------------------------------------------------------------
# Per-rank delivery plans (redistribution hot path)
#
# The driver used to rediscover, on every rank and at every step, which
# of the step's messages it sends or receives — an O(ranks x messages)
# scan per redistribution that dominated phantom-mode host time.  A
# RedistPlan tabulates the routing once per (schedule, layout) key:
# rank r reads its own step list and touches nothing else.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankStep:
    """What one communicator rank does in one schedule step.

    ``sends`` preserves the schedule's message order and excludes empty
    messages (the driver never ships zero bytes); ``recv_count`` is the
    number of nonzero inbound messages from *other* ranks.
    """

    sends: tuple  # of (Message2D, dst_rank, nbytes)
    recv_count: int


_EMPTY_RANK_STEP = RankStep(sends=(), recv_count=0)


@dataclass(frozen=True, eq=False)
class RedistPlan:
    """Per-rank, per-step routing of one redistribution schedule
    (hashed by identity: cached plans key further caches)."""

    num_steps: int
    by_rank: dict  # rank -> tuple[RankStep, ...]

    def rank_steps(self, rank: int) -> tuple:
        steps = self.by_rank.get(rank)
        if steps is None:
            return (_EMPTY_RANK_STEP,) * self.num_steps
        return steps

    @cached_property
    def is_permutation(self) -> bool:
        """Whether every step is a partial permutation: each rank sends
        at most one message and receives at most one (§3.2)."""
        return all(len(step.sends) <= 1 and step.recv_count <= 1
                   for steps in self.by_rank.values() for step in steps)


def build_rank_plans(schedule, src_grid, dst_grid, m: int, n: int,
                     mb: int, nb: int, itemsize: int) -> RedistPlan:
    """Tabulate an arbitrary schedule into a :class:`RedistPlan`."""
    sends: dict[int, list] = {}
    recvs: dict[int, list] = {}
    num_steps = schedule.num_steps
    for step_idx, step in enumerate(schedule.steps):
        for msg in step:
            nbytes = message_nbytes(m, n, mb, nb, itemsize, msg)
            if nbytes == 0:
                continue
            src_rank = src_grid.rank_of(*msg.src)
            dst_rank = dst_grid.rank_of(*msg.dst)
            sends.setdefault(src_rank, [[] for _ in range(num_steps)])[
                step_idx].append((msg, dst_rank, nbytes))
            if dst_rank != src_rank:
                counts = recvs.setdefault(dst_rank, [0] * num_steps)
                counts[step_idx] += 1
    by_rank: dict[int, tuple] = {}
    for rank in set(sends) | set(recvs):
        rank_sends = sends.get(rank)
        rank_recvs = recvs.get(rank)
        by_rank[rank] = tuple(
            RankStep(
                sends=tuple(rank_sends[s]) if rank_sends else (),
                recv_count=rank_recvs[s] if rank_recvs else 0)
            for s in range(num_steps))
    return RedistPlan(num_steps=num_steps, by_rank=by_rank)


@lru_cache(maxsize=256)
def cached_rank_plans(row_blocks: int, col_blocks: int,
                      src_grid: tuple[int, int], dst_grid: tuple[int, int],
                      m: int, n: int, mb: int, nb: int,
                      itemsize: int) -> RedistPlan:
    """Memoized :func:`build_rank_plans` of the cached default schedule.

    The returned plan is shared — treat it as read-only.
    """
    from repro.blacs.grid import ProcessGrid

    schedule = cached_2d_schedule(row_blocks, col_blocks,
                                  src_grid, dst_grid)
    return build_rank_plans(schedule, ProcessGrid(*src_grid),
                            ProcessGrid(*dst_grid), m, n, mb, nb,
                            itemsize)
