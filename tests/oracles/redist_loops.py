"""Per-block redistribution data path: the pre-vectorization loops.

One Python-level step per block, addressed through
:meth:`DistributedMatrix.local_block_slices`.  The vectorized byte
counting and :func:`repro.darray.copy_rect` are checked against these,
and ``benchmarks/test_perf_redist.py`` times them.
"""

from __future__ import annotations

import numpy as np

from repro.darray import Descriptor, DistributedMatrix
from repro.redist.schedule import Message2D


def _message_nbytes_loop(desc: Descriptor, msg: Message2D) -> int:
    """Reference: payload bytes summed block by block."""
    total = 0
    for rb in msg.row_blocks:
        rlen = min(desc.mb, desc.m - rb * desc.mb)
        if rlen <= 0:
            continue
        for cb in msg.col_blocks:
            clen = min(desc.nb, desc.n - cb * desc.nb)
            if clen <= 0:
                continue
            total += rlen * clen * desc.itemsize
    return total


def _pack_blocks_loop(src_dm: DistributedMatrix, rank: int,
                      msg: Message2D) -> list[tuple[int, int, np.ndarray]]:
    """Reference: extract the message's blocks one numpy slice at a time."""
    out = []
    desc = src_dm.desc
    for rb in msg.row_blocks:
        if rb * desc.mb >= desc.m:
            continue
        for cb in msg.col_blocks:
            if cb * desc.nb >= desc.n:
                continue
            rs, cs = src_dm.local_block_slices(rank, rb, cb)
            out.append((rb, cb, src_dm.local(rank)[rs, cs].copy()))
    return out


def _unpack_blocks_loop(dst_dm: DistributedMatrix, rank: int,
                        blocks: list[tuple[int, int, np.ndarray]]) -> None:
    """Reference: place received blocks one numpy slice at a time."""
    for rb, cb, data in blocks:
        rs, cs = dst_dm.local_block_slices(rank, rb, cb)
        dst_dm.local(rank)[rs, cs] = data
