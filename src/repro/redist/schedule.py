"""Contention-free communication schedules.

A *schedule* arranges the communication classes of a redistribution into
steps.  A step is contention-free when it is a partial permutation of
processors: every processor sends at most one message and receives at
most one message.  On a network with per-NIC serialization (ours, and
real Gigabit Ethernet) contention-free steps are what keep every wire
busy without queueing.

Three constructions:

* :func:`build_1d_schedule` — the generalized-circulant construction for
  same-block-size P -> Q redistribution.  Steps are consecutive windows
  of the class table; the circulant structure makes each window a
  partial permutation, achieving the minimum step count
  ``max(L/P, L/Q)``.
* :func:`edge_coloring_schedule` — a general fallback for arbitrary
  (src, dst) class sets, via bipartite edge coloring (König's theorem)
  implemented with repeated maximum matchings (networkx, imported on
  first call: nothing else in the simulator needs it).
* :func:`build_naive_1d_schedule` — everything in one step; the ablation
  baseline showing what contention costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.redist.tables import BlockClass, crt_block_classes


@dataclass(frozen=True)
class Message1D:
    """An aggregated message of one 1-D redistribution step."""

    src: int
    dst: int
    blocks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.blocks)


@dataclass
class Schedule1D:
    """Steps of aggregated messages for one dimension."""

    P: int
    Q: int
    nblocks: int
    steps: list[list[Message1D]] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def messages(self) -> list[Message1D]:
        return [m for step in self.steps for m in step]


@dataclass(frozen=True)
class Message2D:
    """An aggregated message of a checkerboard redistribution step.

    Carries the cross product ``row_blocks x col_blocks`` of global
    blocks from grid process ``src`` (in the source grid) to ``dst`` (in
    the destination grid).
    """

    src: tuple[int, int]
    dst: tuple[int, int]
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.row_blocks) * len(self.col_blocks)


@dataclass
class Schedule2D:
    """Steps of aggregated 2-D messages (checkerboard redistribution)."""

    src_grid: tuple[int, int]
    dst_grid: tuple[int, int]
    row_blocks: int
    col_blocks: int
    steps: list[list[Message2D]] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def messages(self) -> list[Message2D]:
        return [m for step in self.steps for m in step]


# ---------------------------------------------------------------------------
# 1-D circulant construction
# ---------------------------------------------------------------------------

def build_1d_schedule(nblocks: int, P: int, Q: int) -> Schedule1D:
    """Contention-free schedule for P -> Q same-block-size redistribution.

    The class table (phases ``0..L-1``, ``L = lcm(P, Q)``) is cut into
    consecutive windows of ``min(P, Q)`` phases; each window is one step.
    Within a window the phases are consecutive integers, so their
    residues mod P are pairwise distinct (window length <= P) and their
    residues mod Q are pairwise distinct (window length <= Q) — i.e.
    every step is a partial permutation.  The step count is
    ``L / min(P, Q) = max(L/P, L/Q)``, which is optimal: the busiest
    side's processors each appear in ``max(L/P, L/Q)`` classes and can
    handle only one per step.  This is the generalized-circulant
    construction of Park et al. specialized to equal block sizes (the
    ReSHAPE case, where only the processor count changes).
    """
    if P < 1 or Q < 1 or nblocks < 0:
        raise ValueError("bad schedule parameters")
    # crt_block_classes returns classes in phase order 0..min(L, nblocks);
    # consecutive windows of the list are exactly the phase windows.
    classes = crt_block_classes(nblocks, P, Q)
    L = math.lcm(P, Q)
    small = min(P, Q)
    schedule = Schedule1D(P=P, Q=Q, nblocks=nblocks)
    for start in range(0, L, small):
        step = [
            Message1D(src=cls.src, dst=cls.dst, blocks=cls.blocks)
            for cls in classes[start:start + small] if cls.count > 0
        ]
        if step:
            schedule.steps.append(step)
    return schedule


def build_naive_1d_schedule(nblocks: int, P: int, Q: int) -> Schedule1D:
    """All classes in one step — maximal contention (ablation baseline)."""
    classes = [c for c in crt_block_classes(nblocks, P, Q) if c.count > 0]
    schedule = Schedule1D(P=P, Q=Q, nblocks=nblocks)
    if classes:
        schedule.steps.append([
            Message1D(src=c.src, dst=c.dst, blocks=c.blocks)
            for c in classes
        ])
    return schedule


def edge_coloring_schedule(nblocks: int, P: int, Q: int) -> Schedule1D:
    """General contention-free schedule via bipartite edge coloring.

    Builds the bipartite multigraph of communication classes and strips
    maximum matchings until empty.  König's edge-coloring theorem
    guarantees ``max-degree`` colors suffice; repeated maximum matching
    realizes that bound on this class structure and needs no circulant
    property, so it also covers future layouts (e.g. different source
    and destination block sizes) the paper lists as extensions.
    """
    import networkx as nx  # the only networkx user; imported on first call

    classes = [c for c in crt_block_classes(nblocks, P, Q) if c.count > 0]
    remaining: list[BlockClass] = list(classes)
    schedule = Schedule1D(P=P, Q=Q, nblocks=nblocks)
    while remaining:
        graph = nx.Graph()
        edge_classes: dict[tuple[str, str], BlockClass] = {}
        for cls in remaining:
            u, v = f"s{cls.src}", f"d{cls.dst}"
            # A simple graph merges parallel classes; only one per
            # (src, dst) can go in a single step anyway.
            if (u, v) not in edge_classes:
                graph.add_edge(u, v)
                edge_classes[(u, v)] = cls
        matching = nx.algorithms.matching.max_weight_matching(
            graph, maxcardinality=True)
        step: list[Message1D] = []
        taken: set[int] = set()
        for a, b in matching:
            key = (a, b) if a.startswith("s") else (b, a)
            cls = edge_classes[key]
            step.append(Message1D(src=cls.src, dst=cls.dst,
                                  blocks=cls.blocks))
            taken.add(id(cls))
        if not step:  # pragma: no cover - matching always non-empty
            raise RuntimeError("edge coloring failed to progress")
        schedule.steps.append(step)
        remaining = [c for c in remaining if id(c) not in taken]
    return schedule


# ---------------------------------------------------------------------------
# 2-D checkerboard construction
# ---------------------------------------------------------------------------

def build_2d_schedule(row_blocks: int, col_blocks: int,
                      src_grid: tuple[int, int],
                      dst_grid: tuple[int, int]) -> Schedule2D:
    """Checkerboard redistribution as the product of two 1-D schedules.

    Step ``(tr, tc)`` of the product pairs every row-message of row-step
    ``tr`` with every column-message of column-step ``tc``; since the row
    (resp. column) parts are partial permutations of grid rows (resp.
    columns), each combined step is a partial permutation of grid
    processes — contention-free.  This is exactly the paper's "extension
    of the algorithm for a 1-D processor topology" to checkerboards.
    """
    Pr, Pc = src_grid
    Qr, Qc = dst_grid
    row_sched = build_1d_schedule(row_blocks, Pr, Qr)
    col_sched = build_1d_schedule(col_blocks, Pc, Qc)
    schedule = Schedule2D(src_grid=src_grid, dst_grid=dst_grid,
                          row_blocks=row_blocks, col_blocks=col_blocks)
    for row_step in row_sched.steps:
        for col_step in col_sched.steps:
            step = [
                Message2D(src=(rm.src, cm.src), dst=(rm.dst, cm.dst),
                          row_blocks=rm.blocks, col_blocks=cm.blocks)
                for rm in row_step for cm in col_step
            ]
            if step:
                schedule.steps.append(step)
    return schedule


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_schedule_contention_free(schedule: Schedule1D | Schedule2D,
                                    ) -> bool:
    """Every step a partial permutation (<=1 send, <=1 recv per process)."""
    for step in schedule.steps:
        sources = [m.src for m in step]
        dests = [m.dst for m in step]
        if len(set(sources)) != len(sources):
            return False
        if len(set(dests)) != len(dests):
            return False
    return True


def verify_schedule_complete(schedule: Schedule1D) -> bool:
    """Each global block appears exactly once, routed src->dst correctly."""
    messages = [m for m in schedule.messages if m.blocks]
    if not messages:
        return schedule.nblocks == 0
    blocks = np.concatenate([np.asarray(m.blocks, dtype=np.int64)
                             for m in messages])
    srcs = np.concatenate([np.full(len(m.blocks), m.src, dtype=np.int64)
                           for m in messages])
    dsts = np.concatenate([np.full(len(m.blocks), m.dst, dtype=np.int64)
                           for m in messages])
    if len(blocks) != schedule.nblocks:
        return False
    if len(np.unique(blocks)) != len(blocks):
        return False
    if blocks.min() < 0 or blocks.max() >= schedule.nblocks:
        return False
    return bool(np.all(srcs == blocks % schedule.P) and
                np.all(dsts == blocks % schedule.Q))


def verify_2d_schedule_complete(schedule: Schedule2D) -> bool:
    """Each (row-block, col-block) pair routed exactly once, correctly."""
    expected = schedule.row_blocks * schedule.col_blocks
    messages = [m for m in schedule.messages
                if m.row_blocks and m.col_blocks]
    if not messages:
        return expected == 0
    Pr, Pc = schedule.src_grid
    Qr, Qc = schedule.dst_grid
    keys = []
    for msg in messages:
        rb = np.asarray(msg.row_blocks, dtype=np.int64)
        cb = np.asarray(msg.col_blocks, dtype=np.int64)
        if (rb.min() < 0 or rb.max() >= schedule.row_blocks or
                cb.min() < 0 or cb.max() >= schedule.col_blocks):
            return False
        if not (np.all(rb % Pr == msg.src[0]) and
                np.all(cb % Pc == msg.src[1])):
            return False
        if not (np.all(rb % Qr == msg.dst[0]) and
                np.all(cb % Qc == msg.dst[1])):
            return False
        # Flatten the cross product to scalar keys for the global
        # exactly-once check.
        keys.append((rb[:, None] * schedule.col_blocks + cb[None, :]
                     ).ravel())
    flat = np.concatenate(keys)
    return len(flat) == expected and len(np.unique(flat)) == expected
