"""File-based checkpoint/restart redistribution — the paper's comparator.

"To get an idea of the relative overhead of redistribution using the
ReSHAPE library compared to file-based checkpointing, we implemented a
simple checkpointing library in which all data is saved and restored
through a single node."  (§4.1.2)

The data path: every source rank ships its whole local array to rank 0;
rank 0 writes the global array to disk; rank 0 reads it back and ships
each destination rank its new local array.  Every byte crosses node 0's
NIC twice and the disk twice — which is why the paper measures this
4.5x-14.5x slower than message-passing redistribution.

Under the same gate as :func:`repro.redist.redistribute`, the funnel
(one receive engine granted in transmit-grant order), the two disk
holds and rank 0's sequential deal-out are walked in closed form by
:mod:`repro.redist.walk`; otherwise the live driver below runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, Optional

import numpy as np

from repro.blacs.grid import ProcessGrid
from repro.darray import Descriptor, DistributedMatrix
from repro.mpi import Phantom
from repro.mpi.comm import Comm
from repro.mpi.datatypes import payload_nbytes
from repro.mpi.errors import MPIError
from repro.redist import walk
from repro.redist.redistribute import RedistributionResult

_CKPT_TAG = 1 << 21


def checkpoint_redistribute(comm: Comm, source: DistributedMatrix,
                            new_grid: ProcessGrid) -> Generator:
    """Remap ``source`` onto ``new_grid`` via single-node checkpointing.

    Collective over ``comm`` (same embedding conventions as
    :func:`repro.redist.redistribute`).  Returns a
    :class:`RedistributionResult`.
    """
    old_desc = source.desc
    P = old_desc.grid.size
    Q = new_grid.size
    if comm.size < max(P, Q):
        raise MPIError(f"communicator size {comm.size} cannot embed grids "
                       f"of {P} and {Q}")
    new_desc = old_desc.with_grid(new_grid)
    me = comm.rank
    disk = comm.world.machine.disk

    # Every byte of every non-root local array crosses the wire twice
    # (funnel in, deal out) — known up front from the two layouts.
    total_wire = sum(_shares(old_desc)[1:]) + sum(_shares(new_desc)[1:])

    def walked(target):
        return lambda views, start: _walk(views, start, source, new_desc,
                                          target, total_wire)

    done = yield from walk.attempt(comm, walked(None), entry=True)
    if done is not None:
        return done

    # One shared destination object (see repro.redist.redistribute).
    target: Optional[DistributedMatrix] = None
    if me == 0:
        target = DistributedMatrix(new_desc,
                                   materialized=source.materialized,
                                   dtype=source.dtype)
    target = yield from comm.bcast(target, root=0)

    yield from comm.barrier()
    t0 = comm.env.now
    done = yield from walk.attempt(comm, walked(target))
    if done is not None:
        return done
    result = RedistributionResult(matrix=target, elapsed=0.0,
                                  total_bytes_moved=total_wire,
                                  payload_nbytes=old_desc.global_nbytes,
                                  steps=2)

    # Phase 1: funnel all local arrays to rank 0.
    if me == 0:
        global_array: Optional[np.ndarray] = None
        if source.materialized:
            gathered = DistributedMatrix(old_desc, materialized=True,
                                         dtype=source.dtype)
            gathered.set_local(0, source.local(0))
        for src in range(1, P):
            payload = yield from comm.recv(source=src, tag=_CKPT_TAG)
            result.messages += 1
            if source.materialized:
                gathered.set_local(src, payload)
        if source.materialized:
            global_array = gathered.to_global()
        # Write the checkpoint file, then read it back for restart.
        yield from disk.write(old_desc.global_nbytes)
        yield from disk.read(old_desc.global_nbytes)
        # Phase 2: deal the restart data out to the new grid.
        refilled: Optional[DistributedMatrix] = None
        if source.materialized:
            assert global_array is not None
            refilled = DistributedMatrix.from_global(global_array, new_desc)
        for dst in range(Q):
            prow, pcol = new_grid.coords(dst)
            nbytes = new_desc.local_nbytes(prow, pcol)
            if dst == 0:
                if refilled is not None:
                    assert target is not None
                    target.set_local(0, refilled.local(0))
                continue
            if refilled is not None:
                payload: object = refilled.local(dst)
            else:
                payload = Phantom(nbytes)
            yield from comm.send(payload, dest=dst, tag=_CKPT_TAG + 1)
            result.messages += 1
            result.bytes_moved += nbytes
    else:
        if me < P:
            nbytes = source.local_nbytes(me)
            if source.materialized:
                payload = source.local(me)
            else:
                payload = Phantom(nbytes)
            yield from comm.send(payload, dest=0, tag=_CKPT_TAG)
            result.bytes_moved += nbytes
        if me < Q:
            payload = yield from comm.recv(source=0, tag=_CKPT_TAG + 1)
            if source.materialized:
                assert target is not None
                target.set_local(me, payload)

    yield from comm.barrier()
    result.elapsed = comm.env.now - t0
    if me >= Q:
        result.matrix = None
    return result


@lru_cache(maxsize=256)
def _shares(desc: Descriptor) -> tuple:
    """Local-array bytes of every rank of ``desc``'s grid."""
    grid = desc.grid
    return tuple(desc.local_nbytes(*grid.coords(r)) for r in range(grid.size))


@lru_cache(maxsize=256)
def _walk_programs(old_desc: Descriptor, new_desc: Descriptor, size: int,
                   write_s: float, read_s: float) -> tuple:
    """Per rank of :func:`checkpoint_redistribute` after its entry
    barrier: the walk ops."""
    funnel, deal = _shares(old_desc), _shares(new_desc)
    # Rank 0: funnel in (source order), then each disk hold is a lock
    # grant delivered at the request instant plus the transfer sleep.
    root = [(walk.RECV, ("funnel", src), None) for src in range(1, len(funnel))]
    root += [(walk.MARK, "disk"), (walk.SLEEP, 0.0), (walk.SLEEP, write_s),
             (walk.SLEEP, 0.0), (walk.SLEEP, read_s)]
    for dst in range(1, len(deal)):
        root += [(walk.SEND, dst, deal[dst], "deal", 0), (walk.WAIT,)]
    programs = [tuple(root)]
    for rank in range(1, size):
        ops: tuple = ()
        if rank < len(funnel):
            ops += ((walk.SEND, 0, funnel[rank], ("funnel", rank), 0),
                    (walk.WAIT,))
        if rank < len(deal):
            ops += ((walk.RECV, "deal", None),)
        programs.append(ops)
    barrier = walk.barrier_ops(size)
    return tuple(ops + barrier[rank] for rank, ops in enumerate(programs))


def _walk(views: list, t0: float, source: DistributedMatrix,
          new_desc: Descriptor, target: Optional[DistributedMatrix],
          total_wire: int) -> Optional[list]:
    """:func:`checkpoint_redistribute` for every rank at once, from its
    entry (``target`` None) or from the entry barrier's exit
    (:mod:`repro.redist.walk`); None declines."""
    entry = None
    if target is None:
        target = DistributedMatrix(new_desc, materialized=source.materialized,
                                   dtype=source.dtype)
        entry = payload_nbytes(target)
    size = views[0].size
    old_desc = source.desc
    disk = views[0].world.machine.disk
    nbytes = old_desc.global_nbytes
    funnel, deal = _shares(old_desc), _shares(new_desc)
    results = [RedistributionResult(
        matrix=target if rank < len(deal) else None, elapsed=0.0,
        total_bytes_moved=total_wire, payload_nbytes=nbytes, steps=2,
        bytes_moved=funnel[rank] if 0 < rank < len(funnel) else 0)
        for rank in range(size)]
    results[0].messages = len(funnel) + len(deal) - 2
    results[0].bytes_moved = sum(deal[1:])
    programs = _walk_programs(old_desc, new_desc, size,
                              disk.write_time(nbytes), disk.read_time(nbytes))

    def then(run):
        written = walk.closed_form(disk.write(nbytes,
                                              start=run.marks["disk"]))
        walk.closed_form(disk.read(nbytes, start=written))
        if source.materialized:
            refilled = DistributedMatrix.from_global(source.to_global(),
                                                     new_desc)
            for rank in range(len(deal)):
                target.set_local(rank, refilled.local(rank))

    return walk.complete(views, t0, programs, results, entry, then)
