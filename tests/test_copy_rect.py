"""The redistribution copy: :func:`repro.darray.copy_rect` and the
block-view ``from_global``/``to_global``, against per-block references.

``copy_rect`` writes straight from one rank's local array into another
rank's (possibly on a different grid), indexing each dimension by a
slice when the message's local block numbers form an arithmetic
progression and by an index array otherwise.  Every case here compares
against the loop oracle (``tests/oracles/redist_loops.py``) or an
``np.ix_`` reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.redist_loops import _pack_blocks_loop, _unpack_blocks_loop

from repro.blacs import ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor, DistributedMatrix, copy_rect
from repro.darray.blockcyclic import (
    cyclic_global_indices,
    local_block_selector,
)
from repro.mpi import World
from repro.redist import redistribute
from repro.redist.schedule import (
    Message2D,
    Schedule2D,
    build_2d_schedule,
    build_naive_1d_schedule,
)
from repro.simulate import Environment

GRID_DIM = st.integers(1, 4)


def _common_blocks(nblocks, p, q, i, j):
    """Blocks held by process ``i`` of a ``p``-deal and ``j`` of a ``q``-deal."""
    return [b for b in range(nblocks) if b % p == i and b % q == j]


def _copy_both_ways(src, dst_desc, messages):
    """Apply ``(msg, src_rank, dst_rank)`` triples with the oracle and with
    copy_rect; returns both destination matrices."""
    oracle = DistributedMatrix(dst_desc)
    direct = DistributedMatrix(dst_desc)
    for msg, sr, dr in messages:
        _unpack_blocks_loop(oracle, dr, _pack_blocks_loop(src, sr, msg))
        copy_rect(src, sr, direct, dr, msg.row_blocks, msg.col_blocks)
    return oracle, direct


def _assert_same_locals(a, b):
    for rank in range(a.desc.grid.size):
        np.testing.assert_array_equal(a.local(rank), b.local(rank))


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 40), n=st.integers(1, 40),
       mb=st.integers(1, 7), nb=st.integers(1, 7),
       pr=GRID_DIM, pc=GRID_DIM, qr=GRID_DIM, qc=GRID_DIM,
       seed=st.integers(0, 2**32 - 1))
def test_schedule_messages_across_ranks_match_oracle(m, n, mb, nb, pr, pc,
                                                     qr, qc, seed):
    """Every message of a full redistribution, sender rank to a
    (usually different) receiver rank on another grid."""
    old, new = ProcessGrid(pr, pc), ProcessGrid(qr, qc)
    desc = Descriptor(m=m, n=n, mb=mb, nb=nb, grid=old)
    g = np.random.default_rng(seed).standard_normal((m, n))
    src = DistributedMatrix.from_global(g, desc)
    schedule = build_2d_schedule(desc.row_blocks, desc.col_blocks,
                                 old.shape, new.shape)
    messages = [(msg, old.rank_of(*msg.src), new.rank_of(*msg.dst))
                for msg in schedule.messages]
    oracle, direct = _copy_both_ways(src, desc.with_grid(new), messages)
    _assert_same_locals(oracle, direct)
    np.testing.assert_array_equal(direct.to_global(), g)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), m=st.integers(1, 40), n=st.integers(1, 40),
       mb=st.integers(1, 7), nb=st.integers(1, 7),
       pr=GRID_DIM, pc=GRID_DIM, qr=GRID_DIM, qc=GRID_DIM)
def test_arbitrary_block_subsets_match_oracle(data, m, n, mb, nb, pr, pc,
                                              qr, qc):
    """One message of any subset of a (source, destination) pair's
    blocks, in any order: gaps and permutations take the index-array
    case, ragged trailing blocks included."""
    old, new = ProcessGrid(pr, pc), ProcessGrid(qr, qc)
    desc = Descriptor(m=m, n=n, mb=mb, nb=nb, grid=old)
    sr = data.draw(st.integers(0, old.size - 1), label="src rank")
    dr = data.draw(st.integers(0, new.size - 1), label="dst rank")
    (si, sj), (di, dj) = old.coords(sr), new.coords(dr)
    rows = _common_blocks(desc.row_blocks, pr, qr, si, di)
    cols = _common_blocks(desc.col_blocks, pc, qc, sj, dj)
    rows = data.draw(st.permutations(rows).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: tuple(p[:k]))))
    cols = data.draw(st.permutations(cols).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: tuple(p[:k]))))
    g = np.arange(m * n, dtype=np.float64).reshape(m, n)
    src = DistributedMatrix.from_global(g, desc)
    msg = Message2D(src=(si, sj), dst=(di, dj), row_blocks=rows,
                    col_blocks=cols)
    oracle, direct = _copy_both_ways(src, desc.with_grid(new),
                                     [(msg, sr, dr)])
    _assert_same_locals(oracle, direct)


@pytest.mark.parametrize("rows,cols", [
    ((0, 3, 4), (0, 1, 2)),     # non-AP rows, AP cols
    ((0, 1, 2), (0, 3, 4)),     # AP rows, non-AP cols
    ((0, 3, 4), (4, 0, 3)),     # both non-AP: np.ix_ core
    ((4, 2, 0), (2,)),          # descending progression: not a slice
    ((0, 3, 6), (1, 3, 6)),     # AP rows through the ragged tail block 6
])
def test_hand_built_non_ap_lists(rows, cols):
    """1x1 -> 1x1 copies between two layouts of a 7x7-block matrix with
    ragged tails, so every block list indexes exactly as written."""
    desc = Descriptor(m=33, n=32, mb=5, nb=5, grid=ProcessGrid(1, 1))
    g = np.arange(33 * 32, dtype=np.float64).reshape(33, 32)
    src = DistributedMatrix.from_global(g, desc)
    msg = Message2D(src=(0, 0), dst=(0, 0), row_blocks=rows, col_blocks=cols)
    oracle, direct = _copy_both_ways(src, desc, [(msg, 0, 0)])
    _assert_same_locals(oracle, direct)
    assert oracle.local(0).any()


def test_selector_kinds():
    """Slices for increasing arithmetic progressions, read-only index
    arrays for everything else, the ragged tail split off."""
    assert local_block_selector(33, 5, (0, 2, 4), 2) == (slice(0, 3, 1), 0)
    assert local_block_selector(33, 5, (1, 4), 3) == (slice(0, 2, 1), 0)
    assert local_block_selector(33, 5, (0, 3, 6), 3) == (slice(0, 2, 1), 3)
    assert local_block_selector(33, 5, (6,), 1) == (slice(0, 0), 3)
    assert local_block_selector(33, 5, (7, 9), 1) == (slice(0, 0), 0)
    full, tail = local_block_selector(33, 5, (0, 3, 4), 1)
    assert isinstance(full, np.ndarray) and list(full) == [0, 3, 4]
    assert not full.flags.writeable and tail == 0


@settings(deadline=None, max_examples=40)
@given(m=st.integers(1, 40), n=st.integers(1, 40),
       mb=st.integers(1, 8), nb=st.integers(1, 8),
       pr=GRID_DIM, pc=GRID_DIM, rsrc=st.integers(0, 3),
       csrc=st.integers(0, 3))
def test_global_conversions_match_ix_reference(m, n, mb, nb, pr, pc,
                                               rsrc, csrc):
    desc = Descriptor(m=m, n=n, mb=mb, nb=nb, grid=ProcessGrid(pr, pc),
                      rsrc=rsrc % pr, csrc=csrc % pc)
    g = np.random.default_rng(m * 41 + n).standard_normal((m, n))
    dm = DistributedMatrix.from_global(g, desc)
    rebuilt = np.full((m, n), np.nan)
    for rank in range(desc.grid.size):
        prow, pcol = desc.grid.coords(rank)
        grows = cyclic_global_indices(m, mb, prow, desc.rsrc, pr)
        gcols = cyclic_global_indices(n, nb, pcol, desc.csrc, pc)
        np.testing.assert_array_equal(dm.local(rank),
                                      g[np.ix_(grows, gcols)])
        rebuilt[np.ix_(grows, gcols)] = dm.local(rank)
    np.testing.assert_array_equal(rebuilt, g)
    np.testing.assert_array_equal(dm.to_global(), g)


# ---------------------------------------------------------------------------
# Whole redistributions: materialized == phantom, array intact
# ---------------------------------------------------------------------------

def _run(desc, global_in, new_grid, schedule):
    env = Environment()
    world = World(env, Machine(env, MachineSpec(num_nodes=16)),
                  launch_overhead=0.0)
    dm = (DistributedMatrix.from_global(global_in, desc)
          if global_in is not None
          else DistributedMatrix(desc, materialized=False))
    out = {}

    def main(comm):
        out[comm.rank] = yield from redistribute(comm, dm, new_grid,
                                                 schedule=schedule)

    world.launch(main, processors=list(range(max(desc.grid.size,
                                                 new_grid.size))))
    env.run()
    return out


def _assert_materialized_matches_phantom(desc, new_grid, schedule):
    g = np.arange(desc.m * desc.n, dtype=np.float64).reshape(desc.m, desc.n)
    mat = _run(desc, g, new_grid, schedule)
    pha = _run(desc, None, new_grid, schedule)
    np.testing.assert_array_equal(mat[0].matrix.to_global(), g)
    for rank, res in mat.items():
        assert (res.elapsed, res.messages, res.bytes_moved,
                res.total_bytes_moved, res.local_copies) == \
            (pha[rank].elapsed, pha[rank].messages, pha[rank].bytes_moved,
             pha[rank].total_bytes_moved, pha[rank].local_copies)


def _non_ap_schedule(desc, old, new):
    """Every (source, destination) pair's blocks in two messages over two
    steps: rows reversed, columns split so that neither part is an
    arithmetic progression."""
    steps = [[], []]
    for sr in range(old.size):
        for dr in range(new.size):
            (si, sj), (di, dj) = old.coords(sr), new.coords(dr)
            rows = _common_blocks(desc.row_blocks, old.pr, new.pr, si, di)
            cols = _common_blocks(desc.col_blocks, old.pc, new.pc, sj, dj)
            if not rows or not cols:
                continue
            picked = cols[1::3]
            for step, part in zip(steps, ([c for c in cols
                                           if c not in picked], picked)):
                if part:
                    step.append(Message2D(src=(si, sj), dst=(di, dj),
                                          row_blocks=tuple(reversed(rows)),
                                          col_blocks=tuple(part)))
    return Schedule2D(src_grid=old.shape, dst_grid=new.shape,
                      row_blocks=desc.row_blocks, col_blocks=desc.col_blocks,
                      steps=steps)


def test_redistribute_non_ap_schedule():
    old, new = ProcessGrid(1, 2), ProcessGrid(2, 3)
    desc = Descriptor(m=23, n=59, mb=2, nb=3, grid=old)
    schedule = _non_ap_schedule(desc, old, new)
    # The schedule really takes the index-array case.
    assert any(isinstance(local_block_selector(desc.n, desc.nb,
                                               msg.col_blocks, 2)[0],
                          np.ndarray) for msg in schedule.messages)
    _assert_materialized_matches_phantom(desc, new, schedule)


def test_redistribute_naive_schedule():
    old, new = ProcessGrid(1, 4), ProcessGrid(1, 6)
    desc = Descriptor(m=17, n=53, mb=4, nb=2, grid=old)
    naive = build_naive_1d_schedule(desc.col_blocks, old.size, new.size)
    schedule = Schedule2D(
        src_grid=old.shape, dst_grid=new.shape,
        row_blocks=desc.row_blocks, col_blocks=desc.col_blocks,
        steps=[[Message2D(src=(0, m.src), dst=(0, m.dst),
                          row_blocks=tuple(range(desc.row_blocks)),
                          col_blocks=m.blocks)
                for m in step] for step in naive.steps])
    _assert_materialized_matches_phantom(desc, new, schedule)
