"""SUMMA distributed matrix multiply (the PDGEMM role).

C = A @ B on a ``pr x pc`` grid: for each block step ``k``, the owning
grid column broadcasts its panel of A along grid rows, the owning grid
row broadcasts its panel of B down grid columns, and every rank does a
local GEMM accumulation — the classic SUMMA pattern.  Over a sweep a
rank holding ``lm x ln`` of C receives ``lm*n + n*ln`` elements, about
``n**2 * (1/pr + 1/pc)``.

In phantom mode a grid whose ranks own their nodes and whose flows fit
the backplane runs a sweep as one live collective call: one interpreter
(``repro.mpi.fastcoll.CollSim``) runs every rank's program on the shared
network replay (docs/phantom.md, "Applications").
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional

import numpy as np

from repro.apps.base import AppContext, Application
from repro.blacs import ProcessGrid
from repro.darray import Descriptor, DistributedMatrix, numroc
from repro.darray.blockcyclic import global_to_local
from repro.mpi import Phantom
from repro.mpi.fastcoll import (
    COMPUTE, KEEP, PROGRAM, PUT, RECV, FastCollState, bcast_table,
)


def _one_call(blacs, mat: bool) -> Optional[FastCollState]:
    """The grid's fast-path record when a phantom sweep runs as one live
    collective call (docs/phantom.md, "Applications"), else None: every
    rank on its own node and the sweep's flows within the backplane."""
    fast = None if mat else blacs.comm._fastcoll()
    return fast if fast is not None and fast.exclusive and fast.quiet \
        else None


def _summa_program(ctx: AppContext, desc: Descriptor, lm: int,
                   ln: int) -> Iterator[tuple]:
    """One rank's SUMMA sweep as op chunks of the live call, block step
    by block step: the row broadcast from grid column ``k % pc``, the
    column broadcast from grid row ``k % pr`` (hop order from
    ``bcast_table``), then the local GEMM.  The ops are the hops of the
    per-broadcast path (``Comm.bcast``): each send books to its own row
    or column ``CommStats``."""
    blacs = ctx.blacs
    grid = blacs.grid
    rate = ctx.machine.nodes[ctx.comm.node_of(ctx.comm.rank)].flop_rate
    bcasts = ((grid.row_members(blacs.myrow), blacs.mycol,
               blacs.row_comm.stats, lm),
              (grid.col_members(blacs.mycol), blacs.myrow,
               blacs.col_comm.stats, ln))
    chunks: dict = {}                   # (which, root, w) -> ops
    n, nb = desc.n, desc.nb
    for k in range(desc.col_blocks):
        w = min(nb, n - k * nb)
        for which, (members, me, stats, extent) in enumerate(bcasts):
            root = k % len(members)
            ops = chunks.get((which, root, w))
            if ops is None:
                nbytes = extent * w * desc.itemsize
                ops = chunks[which, root, w] = tuple(
                    # Bump: a message already waiting still costs a get.
                    (RECV, members[op[1]], KEEP, None, True)
                    if op[0] == RECV else
                    (PUT, members[op[1]], nbytes, stats)
                    for op in bcast_table(len(members), root).ops[me])
            if ops:
                yield ops
        if lm > 0 and ln > 0 and w > 0:
            yield ((COMPUTE, 2.0 * lm * ln * w / rate),)


def pdgemm(ctx: AppContext, a: DistributedMatrix, b: DistributedMatrix,
           c: DistributedMatrix) -> Generator:
    """C = A @ B, collective over the grid (square matrices, same desc)."""
    blacs = ctx.blacs
    assert blacs is not None
    desc = a.desc
    n, nb = desc.n, desc.nb
    if desc.m != n or desc.mb != nb:
        raise ValueError("pdgemm reproduction needs square blocks/matrices")
    grid = desc.grid
    pr, pc = grid.pr, grid.pc
    myrow, mycol = blacs.myrow, blacs.mycol
    me = blacs.comm.rank
    mat = a.materialized and b.materialized and c.materialized
    itemsize = desc.itemsize

    lm = numroc(n, nb, myrow, 0, pr)
    ln = numroc(n, nb, mycol, 0, pc)
    fast = _one_call(blacs, mat)
    if fast is not None:
        blocks = desc.col_blocks
        for view in (blacs.row_comm, blacs.col_comm):
            view._coll_seq += blocks
            view.stats.collectives += blocks
        # A rank done with one sweep joins the next in the same call if
        # it is still running: the sweeps' hops share one cause order.
        yield fast.live_call(PROGRAM, PROGRAM).join(
            me, None, _summa_program(ctx, desc, lm, ln))
        return
    if mat:
        c.local(me)[...] = 0.0

    for k in range(desc.col_blocks):
        j0 = k * nb
        w = min(nb, n - j0)
        pcol_k = k % pc
        prow_k = k % pr

        # Panel of A: my local rows x w, from grid column pcol_k.
        a_piece: object = None
        if mycol == pcol_k:
            if mat:
                _own, lc0 = global_to_local(j0, nb, 0, pc)
                a_piece = a.local(me)[:, lc0:lc0 + w].copy()
            else:
                a_piece = Phantom(lm * w * itemsize)
        a_piece = yield from blacs.row_bcast(a_piece, root_col=pcol_k)

        # Panel of B: w x my local cols, from grid row prow_k.
        b_piece: object = None
        if myrow == prow_k:
            if mat:
                _own, lr0 = global_to_local(j0, nb, 0, pr)
                b_piece = b.local(me)[lr0:lr0 + w, :].copy()
            else:
                b_piece = Phantom(w * ln * itemsize)
        b_piece = yield from blacs.col_bcast(b_piece, root_row=prow_k)

        # Local GEMM accumulation.
        if lm > 0 and ln > 0 and w > 0:
            yield from ctx.charge(2.0 * lm * ln * w)
            if mat:
                c.local(me)[...] += a_piece @ b_piece


class MatMulApplication(Application):
    """Ten C = A @ B products of ``n x n`` matrices (paper's MM job)."""

    topology = "grid"

    @property
    def name(self) -> str:
        return "MM"

    def default_block(self) -> int:
        return min(64, max(1, self.problem_size // 8))

    def create_data(self, grid: ProcessGrid) -> dict[str, DistributedMatrix]:
        desc = Descriptor(m=self.problem_size, n=self.problem_size,
                          mb=self.block, nb=self.block, grid=grid,
                          itemsize=self.dtype.itemsize)
        if self.materialized:
            rng = np.random.default_rng(99)
            a = rng.standard_normal((self.problem_size, self.problem_size))
            b = rng.standard_normal((self.problem_size, self.problem_size))
            return {
                "A": DistributedMatrix.from_global(a.astype(self.dtype),
                                                   desc),
                "B": DistributedMatrix.from_global(b.astype(self.dtype),
                                                   desc),
                "C": DistributedMatrix(desc, dtype=self.dtype),
            }
        return {name: DistributedMatrix(desc, materialized=False,
                                        dtype=self.dtype)
                for name in ("A", "B", "C")}

    def flops_per_iteration(self) -> float:
        return 2.0 * self.problem_size ** 3

    def iterate(self, ctx: AppContext) -> Generator:
        # Once a configuration has measured the same per-rank durations
        # twice (confirm=2: the sweep has no internal barriers, so
        # stability is verified rather than assumed), the barrier-anchored
        # replay advances each later iteration in O(1).  The durations
        # are ``env.now - t0`` and must repeat bit for bit, so W1's MM
        # measures several sweeps per configuration live first
        # (docs/phantom.md, "Applications").
        yield from self.replay_iterations(
            ctx,
            lambda: pdgemm(ctx, ctx.data["A"], ctx.data["B"],
                           ctx.data["C"]),
            key=(self.problem_size, self.block), confirm=2)
