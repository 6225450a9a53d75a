"""Block-cyclic index arithmetic (the ScaLAPACK TOOLS routines).

All functions work on one dimension at a time; 2-D layouts apply them to
rows and columns independently.  Conventions match ScaLAPACK: ``n``
global elements in blocks of ``nb``, dealt round-robin to ``nprocs``
processes starting at process ``isrc``.

The scalar routines (``numroc``, ``global_to_local``, ...) are the
faithful ports; the array routines below them are their vectorized
counterparts used on the redistribution hot path, where per-element
Python loops would dominate the simulation wall-clock.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def numroc(n: int, nb: int, iproc: int, isrc: int, nprocs: int) -> int:
    """NUMber of Rows Or Columns owned locally by process ``iproc``.

    Faithful port of ScaLAPACK's ``NUMROC``.
    """
    if n < 0 or nb < 1 or nprocs < 1:
        raise ValueError("bad numroc arguments")
    if not 0 <= iproc < nprocs or not 0 <= isrc < nprocs:
        raise ValueError("process index out of range")
    mydist = (nprocs + iproc - isrc) % nprocs
    nblocks = n // nb
    count = (nblocks // nprocs) * nb
    extra = nblocks % nprocs
    if mydist < extra:
        count += nb
    elif mydist == extra:
        count += n % nb
    return count


def block_owner(block: int, isrc: int, nprocs: int) -> int:
    """Process owning global block index ``block``."""
    if block < 0:
        raise ValueError("negative block index")
    return (block + isrc) % nprocs


def global_to_local(gindex: int, nb: int, isrc: int,
                    nprocs: int) -> tuple[int, int]:
    """Map a global element index to ``(owner_process, local_index)``."""
    if gindex < 0:
        raise ValueError("negative global index")
    block = gindex // nb
    owner = block_owner(block, isrc, nprocs)
    local_block = block // nprocs
    return owner, local_block * nb + gindex % nb


def local_to_global(lindex: int, iproc: int, nb: int, isrc: int,
                    nprocs: int) -> int:
    """Map a local element index on ``iproc`` back to its global index."""
    if lindex < 0:
        raise ValueError("negative local index")
    local_block = lindex // nb
    mydist = (nprocs + iproc - isrc) % nprocs
    gblock = local_block * nprocs + mydist
    return gblock * nb + lindex % nb


def local_blocks(n: int, nb: int, iproc: int, isrc: int,
                 nprocs: int) -> list[tuple[int, int, int]]:
    """Blocks owned by ``iproc``: list of ``(gblock, gstart, length)``.

    ``gstart`` is the first global element of the block; ``length`` is
    the block's extent (the trailing block may be short).
    """
    out = []
    nblocks = (n + nb - 1) // nb
    mydist = (nprocs + iproc - isrc) % nprocs
    for gblock in range(mydist, nblocks, nprocs):
        gstart = gblock * nb
        length = min(nb, n - gstart)
        if length > 0:
            out.append((gblock, gstart, length))
    return out


# ---------------------------------------------------------------------------
# vectorized counterparts (redistribution hot path)
# ---------------------------------------------------------------------------

def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``
    without the Python loop.  Zero-length ranges contribute nothing."""
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Offset of each output element within its own range.
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.intp) - np.repeat(ends - lengths,
                                                         lengths)
    return np.repeat(starts, lengths) + within


@lru_cache(maxsize=1024)
def cyclic_global_indices(n: int, nb: int, iproc: int, isrc: int,
                          nprocs: int) -> np.ndarray:
    """Global element indices of ``iproc``'s local array, in storage order.

    ``out[l]`` is the global index of local element ``l`` — the
    vectorized form of ``local_to_global(l, iproc, nb, isrc, nprocs)``
    for every local element at once.  Cached (read-only) because the
    same layouts recur at every resize point.
    """
    nblocks = (n + nb - 1) // nb
    mydist = (nprocs + iproc - isrc) % nprocs
    gblocks = np.arange(mydist, nblocks, nprocs, dtype=np.intp)
    gstarts = gblocks * nb
    lengths = np.minimum(nb, n - gstarts)
    out = concat_ranges(gstarts, lengths)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def local_block_selector(n: int, nb: int, blocks: tuple[int, ...],
                         nprocs: int) -> tuple[slice | np.ndarray, int]:
    """Where global ``blocks`` sit in their owner's local array:
    ``(full, tail)``.

    ``full`` selects the local block numbers (``block // nprocs``) of
    the full blocks, in the order given: a slice when they form an
    increasing arithmetic progression (every in-tree schedule's messages
    do — a CRT class of blocks steps by lcm(P, Q)), a read-only intp
    array otherwise.  ``tail`` is the length of the trailing partial
    block when ``blocks`` holds it (on its owner it is the last local
    block), else 0.  Blocks past the extent are dropped.  Both depend on
    the global layout only, so the two ends of a redistribution message
    derive matching selectors from their own descriptors.  Cached:
    messages repeat across schedule steps and resize points.
    """
    full_blocks, tail = divmod(n, nb)
    local = [block // nprocs for block in blocks if block < full_blocks]
    steps = {b - a for a, b in zip(local, local[1:])}
    if len(steps) > 1 or min(steps, default=1) < 1:
        full = np.array(local, dtype=np.intp)
        full.flags.writeable = False
    elif local:
        full = slice(local[0], local[-1] + 1, steps.pop() if steps else 1)
    else:
        full = slice(0, 0)
    return full, (tail if full_blocks in blocks else 0)
