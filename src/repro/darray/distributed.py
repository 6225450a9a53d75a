"""Distributed matrices: descriptor + per-rank local storage.

The simulator is a single OS process, so a :class:`DistributedMatrix`
holds every rank's local array in one list; rank code only ever touches
its own entry (``local(rank)``), preserving SPMD discipline.  The one
exception is a redistribution message: its sender writes the blocks
straight into the destination rank's local array (:func:`copy_rect`),
standing in for the wire.  In phantom mode the list holds ``None`` and
only shapes/bytes are tracked.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.darray.blockcyclic import local_block_selector
from repro.darray.descriptor import Descriptor


class DistributedMatrix:
    """A 2-D block-cyclic distributed array.

    ``materialized=True`` allocates a real numpy local array per rank;
    ``materialized=False`` (phantom) tracks only the layout, which is all
    the paper-scale simulations need to charge communication time.

    Each rank owns its ``local(rank)`` entry, except that the sender of
    a redistribution message copies into the destination rank's local
    array directly (:func:`copy_rect`) in place of a wire payload.
    """

    def __init__(self, desc: Descriptor, *, materialized: bool = True,
                 dtype=np.float64):
        self.desc = desc
        self.materialized = materialized
        self.dtype = np.dtype(dtype)
        if materialized:
            self._locals: list[Optional[np.ndarray]] = [
                np.zeros(desc.local_shape_of_rank(r), dtype=self.dtype)
                for r in range(desc.grid.size)
            ]
        else:
            self._locals = [None] * desc.grid.size

    # -- storage access ---------------------------------------------------
    def local(self, rank: int) -> np.ndarray:
        """This rank's local array (materialized mode only)."""
        if not self.materialized:
            raise RuntimeError("phantom matrix has no local storage")
        arr = self._locals[rank]
        assert arr is not None
        return arr

    def set_local(self, rank: int, array: np.ndarray) -> None:
        if not self.materialized:
            raise RuntimeError("phantom matrix has no local storage")
        expected = self.desc.local_shape_of_rank(rank)
        if tuple(array.shape) != expected:
            raise ValueError(f"local array shape {array.shape} != "
                             f"descriptor shape {expected}")
        self._locals[rank] = np.ascontiguousarray(array, dtype=self.dtype)

    def local_nbytes(self, rank: int) -> int:
        prow, pcol = self.desc.grid.coords(rank)
        return self.desc.local_nbytes(prow, pcol)

    # -- global <-> local (verification paths; not charged to the network) --
    @classmethod
    def from_global(cls, global_array: np.ndarray, desc: Descriptor,
                    ) -> "DistributedMatrix":
        """Deal a global array out according to ``desc`` (materialized).

        Per rank, the same block-view copy as :func:`copy_rect`, with the
        global array as the ``1 x 1`` layout of the same blocks.
        """
        if global_array.shape != (desc.m, desc.n):
            raise ValueError(f"array shape {global_array.shape} != "
                             f"({desc.m},{desc.n})")
        dm = cls(desc, materialized=True, dtype=global_array.dtype)
        for rank in range(desc.grid.size):
            rows, cols = _owned_blocks(desc, rank)
            _copy_pieces(dm._pieces(rank, rows, cols),
                         _block_pieces(global_array, desc, rows, cols, 1, 1))
        return dm

    def to_global(self) -> np.ndarray:
        """Reassemble the global array (materialized mode only)."""
        if not self.materialized:
            raise RuntimeError("cannot gather a phantom matrix")
        desc = self.desc
        out = np.empty((desc.m, desc.n), dtype=self.dtype)
        for rank in range(desc.grid.size):
            rows, cols = _owned_blocks(desc, rank)
            _copy_pieces(_block_pieces(out, desc, rows, cols, 1, 1),
                         self._pieces(rank, rows, cols))
        return out

    # -- block addressing within local storage ------------------------------
    def local_block_slices(self, rank: int, brow: int, bcol: int,
                           ) -> tuple[slice, slice]:
        """Where global block ``(brow, bcol)`` lives in rank's local array.

        The caller must ensure ``rank`` owns the block.
        """
        desc = self.desc
        if desc.rsrc != 0 or desc.csrc != 0:
            raise NotImplementedError(
                "block addressing assumes rsrc == csrc == 0")
        prow, pcol = desc.grid.coords(rank)
        own = desc.owner_of_block(brow, bcol)
        if own != (prow, pcol):
            raise ValueError(f"block ({brow},{bcol}) owned by {own}, "
                             f"not ({prow},{pcol})")
        lrow_block = brow // desc.grid.pr
        lcol_block = bcol // desc.grid.pc
        rstart = lrow_block * desc.mb
        cstart = lcol_block * desc.nb
        rlen = min(desc.mb, desc.m - brow * desc.mb)
        clen = min(desc.nb, desc.n - bcol * desc.nb)
        return slice(rstart, rstart + rlen), slice(cstart, cstart + clen)

    # -- block-rectangle copies -------------------------------------------
    def _pieces(self, rank: int, row_blocks: tuple[int, ...],
                col_blocks: tuple[int, ...]) -> list[tuple]:
        desc = self.desc
        return _block_pieces(self.local(rank), desc, row_blocks, col_blocks,
                             desc.grid.pr, desc.grid.pc)

    def pack_rect(self, rank: int, row_blocks: tuple[int, ...],
                  col_blocks: tuple[int, ...]) -> list[np.ndarray]:
        """Copy ``row_blocks x col_blocks`` out of ``rank``'s local array,
        one dense array per block piece (see :func:`copy_rect`).

        A redistribution never packs — :func:`copy_rect` writes the
        destination directly; this wire format is for tests.
        """
        return [view[key].copy()
                for view, key in self._pieces(rank, row_blocks, col_blocks)]

    def unpack_rect(self, rank: int, row_blocks: tuple[int, ...],
                    col_blocks: tuple[int, ...],
                    pieces: list[np.ndarray]) -> None:
        """Write a :meth:`pack_rect` payload into ``rank``'s local array."""
        for (view, key), piece in zip(
                self._pieces(rank, row_blocks, col_blocks), pieces,
                strict=True):
            view[key] = piece

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "materialized" if self.materialized else "phantom"
        return f"<DistributedMatrix {self.desc} {mode}>"


def _block_pieces(array: np.ndarray, desc: Descriptor,
                  row_blocks: tuple[int, ...], col_blocks: tuple[int, ...],
                  pr: int, pc: int) -> list[tuple]:
    """``(view, key)`` pairs such that ``view[key]`` over all pairs holds
    global blocks ``row_blocks x col_blocks`` of ``array``, the local
    array of a ``pr x pc`` deal of ``desc``'s blocks (``1 x 1``: the
    global array itself).

    The pieces are the full-block core of a ``(row blocks, col blocks,
    mb, nb)`` view, then the trailing partial row block, the trailing
    partial column block and their corner when the message holds them.
    Piece shapes depend only on the global layout, so two layouts'
    pieces of one message pair up for assignment.
    """
    mb, nb = desc.mb, desc.nb
    rsel, rtail = local_block_selector(desc.m, mb, row_blocks, pr)
    csel, ctail = local_block_selector(desc.n, nb, col_blocks, pc)
    fr, fc = array.shape[0] // mb, array.shape[1] // nb
    r, c = fr * mb, fc * nb
    core = (np.ix_(rsel, csel) if isinstance(rsel, np.ndarray)
            and isinstance(csel, np.ndarray) else (rsel, csel))
    pieces = [(array[:r, :c].reshape(fr, mb, fc, nb).swapaxes(1, 2), core)]
    if rtail:
        pieces.append((array[r:, :c].reshape(rtail, fc, nb),
                       (slice(None), csel)))
    if ctail:
        pieces.append((array[:r, c:].reshape(fr, mb, ctail), rsel))
    if rtail and ctail:
        pieces.append((array[r:, c:], ...))
    return pieces


def _copy_pieces(dst: list[tuple], src: list[tuple]) -> None:
    for (dst_view, dst_key), (src_view, src_key) in zip(dst, src,
                                                         strict=True):
        dst_view[dst_key] = src_view[src_key]


def _owned_blocks(desc: Descriptor, rank: int):
    """Global ``(row blocks, col blocks)`` held by ``rank``."""
    prow, pcol = desc.grid.coords(rank)
    pr, pc = desc.grid.shape
    return (tuple(range((prow - desc.rsrc) % pr, desc.row_blocks, pr)),
            tuple(range((pcol - desc.csrc) % pc, desc.col_blocks, pc)))


def copy_rect(src_dm: DistributedMatrix, src_rank: int,
              dst_dm: DistributedMatrix, dst_rank: int,
              row_blocks: tuple[int, ...],
              col_blocks: tuple[int, ...]) -> None:
    """Copy blocks ``row_blocks x col_blocks`` from ``src_rank``'s local
    array straight into ``dst_rank``'s — the whole data movement of one
    redistribution message, at most four strided numpy assignments.

    The two matrices share the global layout and may differ in grid; the
    caller must ensure each rank owns every in-range block (true for
    schedule messages).
    """
    _copy_pieces(dst_dm._pieces(dst_rank, row_blocks, col_blocks),
                 src_dm._pieces(src_rank, row_blocks, col_blocks))
