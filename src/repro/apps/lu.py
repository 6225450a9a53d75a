"""Distributed right-looking block LU with partial pivoting (PDGETRF role).

The kernel follows ScaLAPACK's structure exactly:

for each block column ``k``:
  1. *panel factorization* on the owning grid column — per column:
     distributed pivot search (max-allreduce down the column), pivot row
     swap, pivot row broadcast, rank-1 update of the panel;
  2. *pivot application* — the recorded row swaps are broadcast across
     the grid row and applied to all non-panel columns;
  3. *U row computation* — the unit-lower triangular solve applied to
     the block row, on the owning grid row;
  4. *panel/U broadcasts* — L panel along grid rows, U block row down
     grid columns;
  5. *trailing-matrix update* — local GEMM on every rank.

In materialized mode every step does real arithmetic (verified against
``P A = L U`` in the tests); in phantom mode the same communication
pattern runs with :class:`~repro.mpi.Phantom` payloads and the per-column
pivot traffic of a panel is sampled once and charged ``w`` times
(deterministic simulation makes one sample exact).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.apps.base import AppContext, Application
from repro.blacs import ProcessGrid
from repro.darray import Descriptor, DistributedMatrix, numroc
from repro.darray.blockcyclic import global_to_local
from repro.mpi import Phantom, payload_nbytes
from repro.mpi.datatypes import HEADER_BYTES
from repro.mpi.fastcoll import (
    bcast_table,
    detached_call,
    reduce_table,
    replay_chain,
)
from repro.simulate import Event


# ---------------------------------------------------------------------------
# Closed-form per-panel cost tables (phantom mode).
#
# Phantom pdgetrf used to execute one representative pivot round (and one
# representative row swap) per panel with real simulated transfers and
# charge the remaining repetitions at the measured cost.  Because the
# sampled rounds start from a barrier, their per-rank cost is a pure
# function of (grid column shape, panel width, network parameters) — so
# it can be computed once with the fast-path collective replay
# (``repro.mpi.fastcoll``) and cached, advancing the clock in O(1) per
# panel with no event machinery at all.  The tables engage only when the
# grid communicator qualifies for the fast path; otherwise the sampled
# reference path below runs unchanged.
# ---------------------------------------------------------------------------

def _lu_cost_tables(machine) -> dict:
    tables = getattr(machine, "_lu_phantom_tables", None)
    if tables is None:
        tables = machine._lu_phantom_tables = {}
    return tables


def _pivot_round_table(machine, col_nodes: tuple, prow_k: int,
                       w: int, itemsize: int) -> tuple:
    """``(times, sends_by_row)`` for one pivot round, entered synchronized.

    One round is the max-allreduce of the ``(value, prow, lrow)``
    candidate followed by the pivot-row broadcast from ``prow_k`` — the
    communication the sampled reference path performs once per panel.
    ``times[row]`` is that grid row's round duration; ``sends_by_row``
    the wire sizes each row puts on the network (for stats mirroring).
    """
    key = ("pivot-round", col_nodes, prow_k, w, itemsize)
    tables = _lu_cost_tables(machine)
    entry = tables.get(key)
    if entry is None:
        pr = len(col_nodes)
        cand_nb = payload_nbytes((1.0, 0, 0))
        times = replay_chain(machine.network, list(col_nodes), [
            # allreduce = binomial reduce to rank 0, then broadcast.
            ("reduce", 0, [Phantom(cand_nb)] * pr),
            ("bcast", 0, [Phantom(cand_nb)] * pr),
            # Pivot-row segment broadcast from the pivot's home row.
            ("bcast", prow_k, [Phantom(w * itemsize)] * pr),
        ])
        # Per row, the round's sends in order: the reduce and candidate
        # broadcast (cand_nb each), then the pivot-row broadcast.
        up, cand = reduce_table(pr, 0).dests, bcast_table(pr, 0).dests
        pivot = bcast_table(pr, prow_k).dests
        sends_by_row = tuple(
            (cand_nb,) * (len(up[row]) + len(cand[row]))
            + (w * itemsize,) * len(pivot[row]) for row in range(pr))
        entry = tables[key] = (times, sends_by_row)
    return entry


def _mirror_round_sends(stats, net_stats, sends: tuple) -> None:
    """Book one rank's sampled sends (pivot rounds never book their
    repetitions — the reference path samples once per panel)."""
    for nbytes in sends:
        stats.sends += 1
        stats.bytes_sent += nbytes
        net_stats.messages += 1
        net_stats.bytes += nbytes + HEADER_BYTES


def _copy_matrix(dm: DistributedMatrix) -> DistributedMatrix:
    """Deep copy (materialized) or layout copy (phantom) of a matrix."""
    out = DistributedMatrix(dm.desc, materialized=dm.materialized,
                            dtype=dm.dtype)
    if dm.materialized:
        for rank in range(dm.desc.grid.size):
            out.local(rank)[...] = dm.local(rank)
    return out


# ---------------------------------------------------------------------------
# Whole-call closed form (phantom fast path)
#
# PR 2 closed-formed the pivot rounds and row swaps but still walked the
# panels live — per panel two rendezvous barriers and four binomial
# broadcasts through the event machinery, which dominated phantom host
# time once everything else was fast.  The walk below computes the whole
# factorization detachedly: one rendezvous collects every rank's entry
# time, the per-panel collective chain (barriers, pivot rounds, swap
# exchanges, L/U broadcasts, local charges) is replayed with the same
# detached_call the cost tables use, and each rank receives its
# completion through one scheduled event.  A pdgetrf call costs O(ranks)
# heap events regardless of matrix size.
# ---------------------------------------------------------------------------

def _synthetic_swaps(n: int, nb: int, j0: int, w: int) -> list:
    """Phantom mode's deterministic pivot choices for one panel (a real
    factorization swaps nearly every row)."""
    return [(j0 + jj, min(n - 1, j0 + jj + nb)) for jj in range(w)]


def _pdgetrf_walk(machine, desc: Descriptor, nodes: list[int],
                  entries: list[float], row_stats: list, col_stats: list,
                  grid_stats) -> tuple[list[float], list]:
    """Per-rank completion times and pivots of one phantom ``pdgetrf``.

    Mirrors the sampled reference path panel by panel: the collective
    sequence is replayed with :func:`repro.mpi.fastcoll.detached_call`
    over persistent scratch engines (NIC serialization between
    consecutive panel operations is preserved), pivot rounds and swap
    exchanges come from the closed-form tables, and local flops advance
    each rank's clock arithmetically.  Stats are booked exactly as the
    sampled path books them (one pivot round and one swap per panel,
    full traffic for barriers and broadcasts).
    """
    network = machine.network
    net_stats = network.stats
    grid = desc.grid
    pr, pc = grid.pr, grid.pc
    size = pr * pc
    n, nb, itemsize = desc.n, desc.nb, desc.itemsize
    T = list(entries)
    engines: dict = {}
    flop = [machine.nodes[nodes[r]].flop_rate for r in range(size)]
    rows = [grid.row_members(row) for row in range(pr)]
    cols = [grid.col_members(col) for col in range(pc)]
    row_nodes = [[nodes[r] for r in members] for members in rows]
    col_nodes = [[nodes[r] for r in members] for members in cols]
    lm = [numroc(n, nb, row, 0, pr) for row in range(pr)]
    ln = [numroc(n, nb, col, 0, pc) for col in range(pc)]

    everyone = list(range(size))
    # Wire size of a full panel's pivot list, as the reference broadcast
    # would measure it (only the last panel can be narrower).
    full_list_nbytes = payload_nbytes([(0, 0)] * nb)
    # One scratch payload list serves every call: barriers carry none
    # and only a broadcast root's slot is ever read.
    payloads: list = [None] * size

    def coll(kind, members, member_nodes, root, stats):
        # A collective call books its tag (the collectives counter)
        # before the size-1 early return, so mirror that even when no
        # traffic moves.
        stats.collectives += len(members)
        if len(members) == 1:
            return
        times = detached_call(network, member_nodes, kind,
                              [T[r] for r in members], payloads,
                              root=root, engines=engines, stats=stats)
        for r, done in zip(members, times):
            T[r] = done

    def bcast(members, member_nodes, nbytes, root, stats):
        payloads[root] = Phantom(nbytes)
        coll("bcast", members, member_nodes, root, stats)

    ipiv: list = []
    for k in range(desc.col_blocks):
        j0 = k * nb
        w = min(nb, n - j0)
        pcol_k = k % pc
        prow_k = k % pr

        # ---- 1. panel factorization (grid column pcol_k) -------------
        members = cols[pcol_k]
        cstats = col_stats[pcol_k]
        coll("barrier", members, col_nodes[pcol_k], 0, cstats)
        round_times, sends_by_row = _pivot_round_table(
            machine, tuple(col_nodes[pcol_k]), prow_k, w, itemsize)
        cstats.collectives += 3 * pr           # reduce + 2 broadcasts
        for row, r in enumerate(members):
            _mirror_round_sends(cstats, net_stats, sends_by_row[row])
            T[r] += w * round_times[row]
            # Rank-1 updates of the panel below each pivot row.
            rows_below = max(0, lm[row] - numroc(j0, nb, row, 0, pr))
            T[r] += float(rows_below) * w * (w + 1) / flop[r]

        panel_swaps = _synthetic_swaps(n, nb, j0, w)
        ipiv.extend(panel_swaps)
        # Share the pivot choices across each grid row.
        list_nbytes = (full_list_nbytes if w == nb
                       else payload_nbytes(panel_swaps))
        for row in range(pr):
            bcast(rows[row], row_nodes[row], list_nbytes, pcol_k,
                  row_stats[row])

        # ---- 2. apply row swaps --------------------------------------
        # Every synthetic swap moves a row, except that the matrix's
        # last row (the last entry of the last panel) stays put.
        real_swaps = w - 1 if j0 + w == n else w
        if real_swaps:
            coll("barrier", everyone, nodes, 0, grid_stats)
            g1, g2 = panel_swaps[0]
            p1, _l1 = global_to_local(g1, nb, 0, pr)
            p2, _l2 = global_to_local(g2, nb, 0, pr)
            if p1 != p2:
                _own, lc0 = global_to_local(j0, nb, 0, pc)
                for col in range(pc):
                    if col == pcol_k:
                        segments = ((0, lc0), (lc0 + w, ln[col]))
                    else:
                        segments = ((0, ln[col]),)
                    for row, other in ((p1, p2), (p2, p1)):
                        r = grid.rank_of(row, col)
                        o = grid.rank_of(other, col)
                        cost = 0.0
                        for lc_from, lc_to in segments:
                            width = lc_to - lc_from
                            if width <= 0:
                                continue
                            nbytes = width * itemsize
                            cost += network.transfer_time(
                                nodes[r], nodes[o], nbytes + HEADER_BYTES)
                            col_stats[col].sends += 1
                            col_stats[col].bytes_sent += nbytes
                            net_stats.messages += 1
                            net_stats.bytes += nbytes + HEADER_BYTES
                        T[r] += real_swaps * cost

        # ---- 3. L11 broadcast + triangular solve (grid row prow_k) ---
        bcast(rows[prow_k], row_nodes[prow_k], w * w * itemsize, pcol_k,
              row_stats[prow_k])
        for col in range(pc):
            cols_right = ln[col] - numroc(j0 + w, nb, col, 0, pc)
            if cols_right > 0:
                r = grid.rank_of(prow_k, col)
                T[r] += float(w) * w * cols_right / flop[r]

        # ---- 4. broadcast L panel along rows, U row down columns -----
        rows_below_k = [lm[row] - numroc(j0 + w, nb, row, 0, pr)
                        for row in range(pr)]
        cols_right_k = [ln[col] - numroc(j0 + w, nb, col, 0, pc)
                        for col in range(pc)]
        for row in range(pr):
            if rows_below_k[row] > 0:
                bcast(rows[row], row_nodes[row],
                      rows_below_k[row] * w * itemsize, pcol_k,
                      row_stats[row])
        for col in range(pc):
            if cols_right_k[col] > 0:
                bcast(cols[col], col_nodes[col],
                      w * cols_right_k[col] * itemsize, prow_k,
                      col_stats[col])

        # ---- 5. trailing-matrix update -------------------------------
        for row in range(pr):
            if rows_below_k[row] <= 0:
                continue
            for col in range(pc):
                if cols_right_k[col] > 0:
                    r = grid.rank_of(row, col)
                    T[r] += (2.0 * rows_below_k[row] *
                             cols_right_k[col] * w / flop[r])
    return T, ipiv


class _WalkCall:
    """Rendezvous for one closed-form phantom ``pdgetrf`` call.

    Ranks join with their entry times; the last arrival runs the walk
    and schedules every rank's completion (value: the shared pivot
    list).  Completion times never precede the last arrival because
    panel 0's swap barrier spans the whole grid.
    """

    def __init__(self, calls: dict, seq: int, size: int):
        self._calls = calls
        self._seq = seq
        self.size = size
        self.entries: dict = {}
        self.events: dict = {}

    def join(self, ctx: AppContext, work: DistributedMatrix):
        env = ctx.env
        rank = ctx.blacs.comm.rank
        ev = Event(env)
        self.events[rank] = ev
        self.entries[rank] = (env.now, ctx)
        if len(self.entries) == self.size:
            self._calls.pop(self._seq, None)
            self._compute(env, work)
        return ev

    def _compute(self, env, work: DistributedMatrix) -> None:
        desc = work.desc
        grid = desc.grid
        ctxs = {r: c for r, (_t, c) in self.entries.items()}
        machine = ctxs[0].machine
        comm = ctxs[0].blacs.comm
        nodes = [machine.node_of(p) for p in comm.processors]
        row_stats = [ctxs[grid.rank_of(row, 0)].blacs.row_comm.stats
                     for row in range(grid.pr)]
        col_stats = [ctxs[grid.rank_of(0, col)].blacs.col_comm.stats
                     for col in range(grid.pc)]
        times, ipiv = _pdgetrf_walk(
            machine, desc, nodes,
            [self.entries[r][0] for r in range(self.size)],
            row_stats, col_stats, comm.stats)
        env.schedule_many((self.events[r], ipiv, times[r])
                          for r in range(self.size))


def _pdgetrf_fast(ctx: AppContext, work: DistributedMatrix) -> Generator:
    """Closed-form phantom ``pdgetrf``: rendezvous, walk, one event."""
    blacs = ctx.blacs
    assert blacs is not None
    comm = blacs.comm
    shared = comm._shared
    calls = getattr(shared, "_lu_walk_calls", None)
    if calls is None:
        calls = shared._lu_walk_calls = {}
    seq = getattr(comm, "_lu_walk_seq", 0)
    comm._lu_walk_seq = seq + 1
    call = calls.get(seq)
    if call is None:
        call = calls[seq] = _WalkCall(calls, seq, comm.size)
    ipiv = yield call.join(ctx, work)
    return list(ipiv)


def pdgetrf(ctx: AppContext, work: DistributedMatrix) -> Generator:
    """Factor ``work`` in place; returns the pivot list ``[(j, gp), ...]``.

    Collective over ``ctx.blacs`` (all grid ranks call it).  ``work``
    must be square with square blocks laid out with ``rsrc = csrc = 0``.
    """
    blacs = ctx.blacs
    assert blacs is not None
    desc = work.desc
    n = desc.n
    nb = desc.nb
    if desc.m != n or desc.mb != nb:
        raise ValueError("pdgetrf needs a square matrix with square blocks")
    grid = desc.grid
    pr, pc = grid.pr, grid.pc
    myrow, mycol = blacs.myrow, blacs.mycol
    me = blacs.comm.rank
    mat = work.materialized
    local = work.local(me) if mat else None
    itemsize = desc.itemsize
    # Phantom mode rides the whole-call closed form when the grid
    # qualifies for the collective fast path (all ranks must agree; the
    # eligibility is a pure function of communicator + machine + flag)
    # AND owns its NICs outright — the detached walk replays on a
    # private network, which rank-sharing jobs (cpus_per_node > 1)
    # would invalidate.  n == 1 lacks the panel-0 swap barrier the
    # rendezvous relies on.
    fast = (None if mat else blacs.comm._fastcoll())
    if fast is not None and fast.exclusive and (grid.size == 1 or n > 1):
        result = yield from _pdgetrf_fast(ctx, work)
        return result

    ipiv: list[tuple[int, int]] = []
    nblocks = desc.col_blocks

    for k in range(nblocks):
        j0 = k * nb
        w = min(nb, n - j0)
        pcol_k = k % pc          # grid column owning the panel
        prow_k = k % pr          # grid row owning the diagonal block row
        # Local extents relative to the trailing matrix.
        lr_panel = numroc(j0, nb, myrow, 0, pr)       # rows above panel
        lr_below = numroc(j0 + w, nb, myrow, 0, pr)   # rows above trailing
        lc_right = numroc(j0 + w, nb, mycol, 0, pc)   # cols left of trailing
        lm = numroc(n, nb, myrow, 0, pr)
        ln = numroc(n, nb, mycol, 0, pc)

        # ---- 1. panel factorization (grid column pcol_k) ----------------
        panel_swaps: list[tuple[int, int]] = []
        if mycol == pcol_k:
            panel_swaps = yield from _factor_panel(
                ctx, work, k, j0, w, lr_panel)
        # Share the pivot choices across the grid row (everyone needs them
        # to apply row swaps and to build the global ipiv).
        panel_swaps = yield from blacs.row_bcast(panel_swaps,
                                                 root_col=pcol_k)
        ipiv.extend(panel_swaps)

        # ---- 2. apply row swaps to non-panel columns ---------------------
        yield from _apply_row_swaps(ctx, work, panel_swaps, j0, w)

        # ---- 3. triangular solve for the U block row ----------------------
        # L11 (w x w unit lower) lives on (prow_k, pcol_k); the owning grid
        # row needs it to solve for U12.
        l11: Optional[np.ndarray] = None
        if myrow == prow_k:
            if mycol == pcol_k:
                if mat:
                    _own, lr0 = global_to_local(j0, nb, 0, pr)
                    _own, lc0 = global_to_local(j0, nb, 0, pc)
                    l11 = local[lr0:lr0 + w, lc0:lc0 + w].copy()
                else:
                    l11 = Phantom(w * w * itemsize)  # type: ignore[assignment]
            l11 = yield from blacs.row_bcast(l11, root_col=pcol_k)
            # Solve L11 * U12 = A12 for my local trailing columns.
            cols_right = ln - lc_right
            if cols_right > 0:
                yield from ctx.charge(float(w) * w * cols_right)
                if mat:
                    import scipy.linalg as sla  # materialized mode only

                    _own, lr0 = global_to_local(j0, nb, 0, pr)
                    block = local[lr0:lr0 + w, lc_right:ln]
                    local[lr0:lr0 + w, lc_right:ln] = sla.solve_triangular(
                        l11, block, lower=True, unit_diagonal=True)

        # ---- 4. broadcast L panel along rows, U row down columns ---------
        rows_below = lm - lr_below
        cols_right = ln - lc_right
        l_piece: object = None
        if mycol == pcol_k and rows_below > 0:
            if mat:
                _own, lc0 = global_to_local(j0, nb, 0, pc)
                l_piece = local[lr_below:lm, lc0:lc0 + w].copy()
            else:
                l_piece = Phantom(rows_below * w * itemsize)
        if rows_below > 0:
            l_piece = yield from blacs.row_bcast(l_piece, root_col=pcol_k)

        u_piece: object = None
        if myrow == prow_k and cols_right > 0:
            if mat:
                _own, lr0 = global_to_local(j0, nb, 0, pr)
                u_piece = local[lr0:lr0 + w, lc_right:ln].copy()
            else:
                u_piece = Phantom(w * cols_right * itemsize)
        if cols_right > 0:
            u_piece = yield from blacs.col_bcast(u_piece, root_row=prow_k)

        # ---- 5. trailing-matrix update ------------------------------------
        if rows_below > 0 and cols_right > 0:
            yield from ctx.charge(2.0 * rows_below * cols_right * w)
            if mat:
                assert isinstance(l_piece, np.ndarray)
                assert isinstance(u_piece, np.ndarray)
                local[lr_below:lm, lc_right:ln] -= l_piece @ u_piece

    return ipiv


def _factor_panel(ctx: AppContext, work: DistributedMatrix, k: int,
                  j0: int, w: int, lr_panel: int) -> Generator:
    """Factor panel ``k`` within its owning grid column; returns swaps.

    Every rank of the grid column participates.  In phantom mode one
    column's communication is executed and the rest charged by
    repetition (the sampled reference path; the fast path replays whole
    calls in closed form and never reaches this code).
    """
    blacs = ctx.blacs
    assert blacs is not None
    desc = work.desc
    nb = desc.nb
    pr = desc.grid.pr
    myrow = blacs.myrow
    me = blacs.comm.rank
    mat = work.materialized
    local = work.local(me) if mat else None
    n = desc.n
    lm = numroc(n, nb, myrow, 0, pr)
    _own, lc0 = global_to_local(j0, nb, 0, desc.grid.pc)

    swaps: list[tuple[int, int]] = []
    if mat:
        for jj in range(w):
            gj = j0 + jj
            # Local pivot candidate among rows with global index >= gj.
            lr_start = numroc(gj, nb, myrow, 0, pr)
            if lr_start < lm:
                col = local[lr_start:lm, lc0 + jj]
                li = int(np.argmax(np.abs(col)))
                cand = (float(abs(col[li])), myrow, lr_start + li)
            else:
                cand = (-1.0, myrow, -1)
            # Max-allreduce down the column (value, prow, localrow).
            best = yield from blacs.col_comm.allreduce(
                cand, op=_PIVOT_MAX)
            gp = _local_to_global_row(best[2], best[1], nb, pr)
            swaps.append((gj, gp))
            yield from _swap_panel_rows(ctx, work, gj, gp, lc0, lc0 + w)
            # Broadcast the pivot row's panel segment from its new home.
            prow_j, lr_j = global_to_local(gj, nb, 0, pr)
            piece = None
            if myrow == prow_j:
                piece = local[lr_j, lc0 + jj:lc0 + w].copy()
            piece = yield from blacs.col_bcast(piece, root_row=prow_j)
            # Rank-1 update of the panel below row gj.
            lr_below = numroc(gj + 1, nb, myrow, 0, pr)
            if lr_below < lm and piece[0] != 0.0:
                colv = local[lr_below:lm, lc0 + jj] / piece[0]
                local[lr_below:lm, lc0 + jj] = colv
                if jj + 1 < w:
                    local[lr_below:lm, lc0 + jj + 1:lc0 + w] -= \
                        np.outer(colv, piece[1:])
                yield from ctx.charge(2.0 * (lm - lr_below) * (w - jj))
    else:
        # Phantom: run one representative pivot column for real, then
        # charge the remaining w-1 columns at the measured cost.  The
        # column is synchronized first so the sample is the pure cost of
        # one pivot round — otherwise arrival skew would be multiplied
        # by w and compound across panels.
        yield from blacs.col_comm.barrier()
        t0 = ctx.env.now
        cand = (1.0, myrow, 0)
        best = yield from blacs.col_comm.allreduce(cand, op=_PIVOT_MAX)
        piece = yield from blacs.col_bcast(
            Phantom(w * desc.itemsize) if myrow == k % pr else None,
            root_row=k % pr)
        elapsed = ctx.env.now - t0
        yield from ctx.repeat_cost(elapsed, w)
    if not mat:
        # Rank-1 updates: sum over columns jj of 2*(rows below)*(w - jj).
        rows_below = max(0, lm - lr_panel)
        yield from ctx.charge(float(rows_below) * w * (w + 1))
        # Synthetic pivot choices so pivot-application traffic is still
        # charged downstream (a real factorization swaps nearly every
        # row); must match the closed-form walk's formula exactly.
        swaps = _synthetic_swaps(n, nb, j0, w)
    return swaps


def _local_to_global_row(lrow: int, prow: int, nb: int, pr: int) -> int:
    from repro.darray.blockcyclic import local_to_global
    return local_to_global(lrow, prow, nb, 0, pr)


def _swap_panel_rows(ctx: AppContext, work: DistributedMatrix,
                     g1: int, g2: int, lc_from: int, lc_to: int) -> Generator:
    """Exchange global rows g1 and g2 within local columns [lc_from, lc_to).

    Executed by the grid column owning those columns; rows may live on
    different grid rows (point-to-point exchange) or the same (local).
    """
    if g1 == g2:
        return
    blacs = ctx.blacs
    assert blacs is not None
    desc = work.desc
    pr = desc.grid.pr
    me = blacs.comm.rank
    mat = work.materialized
    p1, l1 = global_to_local(g1, desc.mb, 0, pr)
    p2, l2 = global_to_local(g2, desc.mb, 0, pr)
    myrow = blacs.myrow
    if myrow not in (p1, p2):
        return
    local = work.local(me) if mat else None
    if p1 == p2:
        if mat:
            tmp = local[l1, lc_from:lc_to].copy()
            local[l1, lc_from:lc_to] = local[l2, lc_from:lc_to]
            local[l2, lc_from:lc_to] = tmp
        return
    mine, theirs = (l1, p2) if myrow == p1 else (l2, p1)
    width = lc_to - lc_from
    if mat:
        payload: object = local[mine, lc_from:lc_to].copy()
    else:
        payload = Phantom(width * desc.itemsize)
    other = yield from blacs.col_comm.sendrecv(
        payload, dest=theirs, source=theirs, send_tag=11, recv_tag=11)
    if mat:
        local[mine, lc_from:lc_to] = other


def _apply_row_swaps(ctx: AppContext, work: DistributedMatrix,
                     swaps: list[tuple[int, int]], j0: int,
                     w: int) -> Generator:
    """Apply recorded pivots to all columns outside the panel."""
    blacs = ctx.blacs
    assert blacs is not None
    desc = work.desc
    mat = work.materialized
    pc = desc.grid.pc
    mycol = blacs.mycol
    ln = numroc(desc.n, desc.nb, mycol, 0, pc)
    # Local column positions of the panel on its owning grid column.
    pcol_k = (j0 // desc.nb) % pc
    if mycol == pcol_k:
        _own, lc0 = global_to_local(j0, desc.nb, 0, pc)
        segments = [(0, lc0), (lc0 + w, ln)]
    else:
        segments = [(0, ln)]
    real_swaps = [(a, b) for a, b in swaps if a != b]
    if mat:
        for g1, g2 in real_swaps:
            for lc_from, lc_to in segments:
                if lc_to > lc_from:
                    yield from _swap_panel_rows(ctx, work, g1, g2,
                                                lc_from, lc_to)
    elif real_swaps:
        # Phantom: sample one swap of the full local width, charge the
        # rest (synchronized first — see _factor_panel).
        yield from blacs.comm.barrier()
        t0 = ctx.env.now
        g1, g2 = real_swaps[0]
        for lc_from, lc_to in segments:
            if lc_to > lc_from:
                yield from _swap_panel_rows(ctx, work, g1, g2,
                                            lc_from, lc_to)
        elapsed = ctx.env.now - t0
        yield from ctx.repeat_cost(elapsed, len(real_swaps))


class _PivotMax:
    """Reduce operator choosing the (value, prow, lrow) with max value."""

    name = "pivot-max"

    def __call__(self, a, b):
        return a if a[0] >= b[0] else b


_PIVOT_MAX = _PivotMax()


class LUApplication(Application):
    """Ten LU factorizations of an ``n x n`` matrix (paper's LU job)."""

    topology = "grid"

    def __init__(self, problem_size: int, **kwargs):
        super().__init__(problem_size, **kwargs)

    @property
    def name(self) -> str:
        return "LU"

    def default_block(self) -> int:
        # ScaLAPACK-era sweet spot; small problems get smaller blocks.
        return min(64, max(1, self.problem_size // 8))

    def create_data(self, grid: ProcessGrid) -> dict[str, DistributedMatrix]:
        desc = Descriptor(m=self.problem_size, n=self.problem_size,
                          mb=self.block, nb=self.block, grid=grid,
                          itemsize=self.dtype.itemsize)
        if self.materialized:
            rng = np.random.default_rng(1234)
            a = rng.standard_normal((self.problem_size, self.problem_size))
            return {"A": DistributedMatrix.from_global(
                a.astype(self.dtype), desc)}
        return {"A": DistributedMatrix(desc, materialized=False,
                                       dtype=self.dtype)}

    def flops_per_iteration(self) -> float:
        return 2.0 / 3.0 * self.problem_size ** 3

    def iterate(self, ctx: AppContext) -> Generator:
        # Measure-once iteration replay (Application.replay_iterations):
        # a phantom factorization's per-rank duration is a pure function
        # of the configuration, so after one measured walk the clock
        # advances in O(1) per iteration.
        result = yield from self.replay_iterations(
            ctx, lambda: self._factor_once(ctx),
            key=(self.problem_size, self.block))
        return [] if result is None else result

    def _factor_once(self, ctx: AppContext) -> Generator:
        # Factor a working copy so the persistent data (what resizing
        # redistributes) stays intact across iterations.
        work = yield from ctx.shared_object(
            lambda: _copy_matrix(ctx.data["A"]))
        yield from ctx.charge_memory(work.local_nbytes(ctx.comm.rank))
        ipiv = yield from pdgetrf(ctx, work)
        return ipiv
