"""Block-cyclic distributed arrays (ScaLAPACK-style).

A :class:`Descriptor` captures how a global ``m x n`` array is dealt in
``mb x nb`` blocks, round-robin, over a ``pr x pc`` process grid — the
layout ScaLAPACK, PBLAS and the paper's redistribution algorithm all
speak.  A :class:`DistributedMatrix` couples a descriptor with per-rank
local storage, in one of two modes:

* **materialized** — real numpy blocks; used by the tests and the small
  examples, where kernels and redistribution are verified numerically.
* **phantom** — shape-only bookkeeping; used at paper scale, where only
  byte counts (and therefore simulated wire time) matter.

Each rank's code touches only its own local array, with one exception:
the sender of a redistribution message writes the blocks straight into
the destination rank's local array (:func:`copy_rect`), standing in for
the wire.
"""

from repro.darray.blockcyclic import (
    block_owner,
    concat_ranges,
    cyclic_global_indices,
    global_to_local,
    local_blocks,
    local_to_global,
    numroc,
)
from repro.darray.descriptor import Descriptor
from repro.darray.distributed import DistributedMatrix, copy_rect

__all__ = [
    "Descriptor",
    "DistributedMatrix",
    "copy_rect",
    "block_owner",
    "concat_ranges",
    "cyclic_global_indices",
    "global_to_local",
    "local_blocks",
    "local_to_global",
    "numroc",
]
