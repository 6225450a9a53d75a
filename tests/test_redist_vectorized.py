"""Equivalence of the vectorized redistribution data path with the
per-block loop reference implementations it replaced.

The loop implementations (``tests/oracles/redist_loops.py``) are the
pre-vectorization code, kept precisely so these tests and the
micro-benchmark can compare against them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.redist_loops import (
    _message_nbytes_loop,
    _pack_blocks_loop,
    _unpack_blocks_loop,
)

from repro.blacs import ProcessGrid
from repro.darray import Descriptor, DistributedMatrix
from repro.darray.blockcyclic import (
    concat_ranges,
    cyclic_global_indices,
    local_to_global,
)
from repro.redist.schedule import build_2d_schedule
from repro.redist.tables import (
    blocks_extent,
    cached_2d_schedule,
    cached_2d_traffic,
    message_nbytes,
)

GRID_DIM = st.integers(1, 4)


def _apply_both_ways(g, desc, old_grid, new_grid):
    """Run one full redistribution through the loop path and the
    vectorized path; returns (loop_target, vectorized_target)."""
    src = DistributedMatrix.from_global(g, desc)
    new_desc = desc.with_grid(new_grid)
    t_loop = DistributedMatrix(new_desc)
    t_vec = DistributedMatrix(new_desc)
    schedule = build_2d_schedule(desc.row_blocks, desc.col_blocks,
                                 old_grid.shape, new_grid.shape)
    for msg in schedule.messages:
        nbytes = message_nbytes(desc.m, desc.n, desc.mb, desc.nb,
                                desc.itemsize, msg)
        assert nbytes == _message_nbytes_loop(desc, msg)
        if nbytes == 0:
            continue
        sr = old_grid.rank_of(*msg.src)
        dr = new_grid.rank_of(*msg.dst)
        _unpack_blocks_loop(t_loop, dr, _pack_blocks_loop(src, sr, msg))
        t_vec.unpack_rect(dr, msg.row_blocks, msg.col_blocks,
                          src.pack_rect(sr, msg.row_blocks,
                                        msg.col_blocks))
    return t_loop, t_vec


@settings(deadline=None, max_examples=40)
@given(m=st.integers(1, 40), n=st.integers(1, 40),
       mb=st.integers(1, 7), nb=st.integers(1, 7),
       pr=GRID_DIM, pc=GRID_DIM, qr=GRID_DIM, qc=GRID_DIM,
       seed=st.integers(0, 2**32 - 1))
def test_vectorized_pack_unpack_matches_loop(m, n, mb, nb, pr, pc,
                                             qr, qc, seed):
    """Property: both data paths place byte-identical matrices."""
    old_grid = ProcessGrid(pr, pc)
    new_grid = ProcessGrid(qr, qc)
    desc = Descriptor(m=m, n=n, mb=mb, nb=nb, grid=old_grid)
    g = np.random.default_rng(seed).standard_normal((m, n))
    t_loop, t_vec = _apply_both_ways(g, desc, old_grid, new_grid)
    for rank in range(new_grid.size):
        np.testing.assert_array_equal(t_loop.local(rank),
                                      t_vec.local(rank))
    np.testing.assert_array_equal(t_vec.to_global(), g)


@pytest.mark.parametrize("m,n,mb,nb", [
    (23, 17, 5, 3),    # ragged trailing blocks in both dimensions
    (24, 24, 24, 24),  # single block
    (7, 31, 7, 2),     # one full-block dimension, one ragged
])
def test_vectorized_pack_unpack_ragged_cases(m, n, mb, nb):
    old_grid = ProcessGrid(2, 3)
    new_grid = ProcessGrid(3, 2)
    desc = Descriptor(m=m, n=n, mb=mb, nb=nb, grid=old_grid)
    g = np.random.default_rng(0).standard_normal((m, n))
    t_loop, t_vec = _apply_both_ways(g, desc, old_grid, new_grid)
    np.testing.assert_array_equal(t_loop.to_global(), t_vec.to_global())
    np.testing.assert_array_equal(t_vec.to_global(), g)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(0, 60), nb=st.integers(1, 8),
       iproc=st.integers(0, 3), nprocs=st.integers(1, 4))
def test_cyclic_global_indices_matches_scalar_port(n, nb, iproc, nprocs):
    if iproc >= nprocs:
        iproc = iproc % nprocs
    idx = cyclic_global_indices(n, nb, iproc, 0, nprocs)
    expected = [local_to_global(l, iproc, nb, 0, nprocs)
                for l in range(len(idx))]
    assert list(idx) == expected
    # Every listed global index must genuinely exist.
    assert all(0 <= g < n for g in idx)


def test_concat_ranges_basic():
    out = concat_ranges(np.array([5, 0, 10]), np.array([2, 0, 3]))
    assert list(out) == [5, 6, 10, 11, 12]
    assert len(concat_ranges(np.array([], dtype=int),
                             np.array([], dtype=int))) == 0


def test_blocks_extent_clips_short_and_overflowing_blocks():
    # n=23, nb=5: blocks 0..3 are full, block 4 has 3, block 5 beyond.
    assert blocks_extent(23, 5, (0, 1)) == 10
    assert blocks_extent(23, 5, (4,)) == 3
    assert blocks_extent(23, 5, (5, 6)) == 0
    assert blocks_extent(23, 5, (0, 4, 7)) == 8


def test_cached_schedule_identical_and_shared():
    fresh = build_2d_schedule(12, 12, (2, 2), (2, 3))
    cached = cached_2d_schedule(12, 12, (2, 2), (2, 3))
    assert cached is cached_2d_schedule(12, 12, (2, 2), (2, 3))
    assert [[ (m.src, m.dst, m.row_blocks, m.col_blocks) for m in step]
            for step in fresh.steps] == \
           [[ (m.src, m.dst, m.row_blocks, m.col_blocks) for m in step]
            for step in cached.steps]


def test_cached_traffic_splits_wire_and_local():
    desc = Descriptor(m=24, n=24, mb=2, nb=2, grid=ProcessGrid(2, 2))
    wire, local = cached_2d_traffic(desc.row_blocks, desc.col_blocks,
                                    (2, 2), (2, 3),
                                    desc.m, desc.n, desc.mb, desc.nb,
                                    desc.itemsize)
    # Everything is accounted exactly once.
    assert wire + local == desc.global_nbytes
    assert wire > 0 and local > 0
    # Identity redistribution: nothing crosses the wire.
    wire_id, local_id = cached_2d_traffic(desc.row_blocks,
                                          desc.col_blocks,
                                          (2, 2), (2, 2),
                                          desc.m, desc.n, desc.mb,
                                          desc.nb, desc.itemsize)
    assert wire_id == 0
    assert local_id == desc.global_nbytes
