"""Execute a redistribution schedule over the simulated MPI layer.

The driver is collective over a communicator that embeds both grids:

* source grid ranks: ``0 .. P-1`` (row-major over the source grid);
* destination grid ranks: ``0 .. Q-1`` (row-major over the destination
  grid).

For an expansion the communicator is the merged (parents + spawned
children) intracommunicator, so retained processors keep their low ranks
— exactly the structure ``World.spawn_multiple`` + ``Intercomm.merge``
produce.  For a shrink the communicator is the pre-shrink one and
destination ranks are the survivors.

Each schedule step sends one aggregated message per (source,
destination) pair: the sender packs its blocks into one buffer (packing
charged at memory bandwidth), ships it (wire time + NIC occupancy), and
the receiver unpacks into the new local array (charged likewise).
Messages to self are local copies — packing cost only.

Data path
---------
One copy per message, made by the sender at send time:
:func:`repro.darray.copy_rect` writes the message's blocks from the
sender's local array straight into the destination rank's local array
of the shared target matrix — at most four strided numpy assignments,
no wire buffer and no unpack.  The simulator is one OS process, so this
stands in for the bytes crossing the wire; nobody reads the target
before the closing barrier, by which time every message has been sent.

The wire itself carries a :class:`~repro.mpi.Phantom` of the message's
byte count in both modes, so a materialized redistribution sends the
very payloads a phantom one does and their clocks agree by
construction.  Byte counts come from precomputed tables
(:mod:`repro.redist.tables`).

Which path runs: when the run's state proves the redistribution alone
on a quiet network and the schedule is a partial permutation per step,
:mod:`repro.redist.walk` computes every rank's completion in closed
form — from the entry when all ranks enter together and every
broadcast and barrier hop finds its engines free, else after the live
broadcast and entry barrier — and delivers the results in one batch.  Otherwise (other jobs, framework
records, tight backplanes, the naive ablation schedule) the live driver
below runs: messages ride the point-to-point fast path
(:mod:`repro.mpi.fastp2p`), a step being the cached per-rank plan walk
plus pure clock arithmetic.  Both paths give identical clocks and
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Optional

from repro.blacs.grid import ProcessGrid
from repro.darray import Descriptor, DistributedMatrix, copy_rect
from repro.mpi import ANY_SOURCE, Phantom
from repro.mpi.comm import Comm
from repro.mpi.datatypes import payload_nbytes
from repro.mpi.errors import MPIError
from repro.redist import walk
from repro.redist.schedule import Schedule2D
from repro.redist.tables import (
    build_rank_plans,
    cached_2d_traffic,
    cached_rank_plans,
    schedule_traffic,
)

#: Tag space for redistribution traffic.
_REDIST_TAG = 1 << 20


@dataclass
class RedistributionResult:
    """Outcome of one redistribution, as seen by one rank."""

    matrix: DistributedMatrix
    elapsed: float
    #: Wire bytes this rank sent (excludes messages to self).
    bytes_moved: int = 0
    #: Wire bytes of the whole redistribution, summed over every rank —
    #: identical on all ranks, known from the schedule alone.
    total_bytes_moved: int = 0
    #: Total payload of the redistributed array (``desc.global_nbytes``);
    #: the part that did not cross the wire was copied locally.
    payload_nbytes: int = 0
    messages: int = 0
    local_copies: int = 0
    steps: int = 0


def _schedule_traffic(schedule: Schedule2D, desc: Descriptor,
                      old_grid: ProcessGrid,
                      new_grid: ProcessGrid) -> tuple[int, int]:
    """``(wire_bytes, local_bytes)`` of a caller-supplied schedule (e.g.
    the naive ablation baseline); the default schedule path goes through
    the cached :func:`repro.redist.tables.cached_2d_traffic`."""
    return schedule_traffic(schedule, old_grid, new_grid,
                            desc.m, desc.n, desc.mb, desc.nb,
                            desc.itemsize)


def redistribute(comm: Comm, source: DistributedMatrix,
                 new_grid: ProcessGrid, *,
                 schedule: Optional[Schedule2D] = None,
                 memory_bandwidth: float = 3.2e9) -> Generator:
    """Collectively remap ``source`` onto ``new_grid``.

    Every rank of ``comm`` calls this (``yield from``).  Ranks outside
    both grids just participate in the closing synchronization.  Returns
    a :class:`RedistributionResult`; ranks outside the new grid get
    ``result.matrix is None``.
    """
    old_desc = source.desc
    old_grid = old_desc.grid
    P = old_grid.size
    Q = new_grid.size
    if comm.size < max(P, Q):
        raise MPIError(f"communicator size {comm.size} cannot embed grids "
                       f"of {P} and {Q}")
    if old_desc.rsrc or old_desc.csrc:
        raise NotImplementedError(
            "redistribution schedules assume rsrc == csrc == 0")
    new_desc = old_desc.with_grid(new_grid)
    me = comm.rank
    in_new = me < Q

    if schedule is None:
        plan = cached_rank_plans(
            old_desc.row_blocks, old_desc.col_blocks,
            old_grid.shape, new_grid.shape,
            old_desc.m, old_desc.n, old_desc.mb, old_desc.nb,
            old_desc.itemsize)
        total_wire, _total_local = cached_2d_traffic(
            old_desc.row_blocks, old_desc.col_blocks,
            old_grid.shape, new_grid.shape,
            old_desc.m, old_desc.n, old_desc.mb, old_desc.nb,
            old_desc.itemsize)
    else:
        plan = build_rank_plans(
            schedule, old_grid, new_grid,
            old_desc.m, old_desc.n, old_desc.mb, old_desc.nb,
            old_desc.itemsize)
        total_wire, _total_local = _schedule_traffic(
            schedule, old_desc, old_grid, new_grid)

    def walked(target):
        return lambda views, start: _walk(
            views, start, source, new_desc, target, plan, total_wire,
            memory_bandwidth)

    if plan.is_permutation:
        done = yield from walk.attempt(comm, walked(None), entry=True)
        if done is not None:
            return done

    # The simulator is one OS process, so the destination matrix is a
    # single shared object: rank 0 allocates it and shares the reference
    # (a tiny broadcast); senders then copy each message's blocks into
    # the destination rank's local array.
    target: Optional[DistributedMatrix] = None
    if me == 0:
        target = DistributedMatrix(new_desc,
                                   materialized=source.materialized,
                                   dtype=source.dtype)
    target = yield from comm.bcast(target, root=0)

    # Synchronize entry so the measured time is the redistribution alone.
    yield from comm.barrier()
    t0 = comm.env.now

    if plan.is_permutation:
        done = yield from walk.attempt(comm, walked(target))
        if done is not None:
            return done

    result = RedistributionResult(matrix=target, elapsed=0.0,
                                  total_bytes_moved=total_wire,
                                  payload_nbytes=old_desc.global_nbytes,
                                  steps=plan.num_steps)

    # Precomputed delivery: each rank walks only its own per-step send
    # and receive lists (repro.redist.tables.RedistPlan) instead of
    # rescanning every message of every step.
    for step_idx, rank_step in enumerate(plan.rank_steps(me)):
        tag = _REDIST_TAG + step_idx

        pending = []
        for msg, dst_rank, nbytes in rank_step.sends:
            # Packing: one pass over the message payload through memory.
            yield comm.env.sleep(nbytes / memory_bandwidth)
            if source.materialized:
                # The message's only copy: straight into the destination
                # rank's local array (see "Data path" above).
                assert target is not None
                copy_rect(source, me, target, dst_rank,
                          msg.row_blocks, msg.col_blocks)
            if dst_rank == me:
                result.local_copies += 1
                continue
            pending.append(comm.isend(
                Phantom(nbytes, meta=("redist", msg.src, msg.dst)),
                dest=dst_rank, tag=tag))
            result.messages += 1
            result.bytes_moved += nbytes
        # A contention-free schedule gives each rank at most one receive
        # per step; degraded schedules (the naive ablation baseline) may
        # give several — accept them in arrival order.
        for _ in range(rank_step.recv_count):
            payload = yield from comm.recv(source=ANY_SOURCE, tag=tag)
            # Unpacking pass through memory on the receive side.
            yield comm.env.sleep(payload.nbytes / memory_bandwidth)
        for req in pending:
            yield from req.wait()

    # Closing barrier: redistribution time is the slowest rank's time,
    # which is what the application (and the paper's tables) observe.
    yield from comm.barrier()
    result.elapsed = comm.env.now - t0
    if not in_new:
        result.matrix = None
    return result


@lru_cache(maxsize=256)
def _walk_programs(plan, size: int, memory_bandwidth: float) -> tuple:
    """Per rank of :func:`redistribute` after its entry barrier: the walk
    ops and ``(messages, bytes_moved, local_copies)``."""
    barrier = walk.barrier_ops(size)
    out = []
    for rank in range(size):
        ops: list = []
        counts = [0, 0, 0]
        for step_idx, rank_step in enumerate(plan.rank_steps(rank)):
            sent = False
            for _msg, dst_rank, nbytes in rank_step.sends:
                ops.append((walk.SLEEP, nbytes / memory_bandwidth))
                if dst_rank == rank:
                    counts[2] += 1
                    continue
                ops.append((walk.SEND, dst_rank, nbytes, step_idx, 0))
                counts[0] += 1
                counts[1] += nbytes
                sent = True
            if rank_step.recv_count:
                ops.append((walk.RECV, step_idx, memory_bandwidth))
            if sent:
                ops.append((walk.WAIT,))
        out.append((tuple(ops) + barrier[rank], tuple(counts)))
    return tuple(out)


def _walk(views: list, t0: float, source: DistributedMatrix,
          new_desc: Descriptor, target: Optional[DistributedMatrix], plan,
          total_wire: int, memory_bandwidth: float) -> Optional[list]:
    """:func:`redistribute` for every rank at once, from its entry
    (``target`` None) or from the entry barrier's exit
    (:mod:`repro.redist.walk`); None declines."""
    entry = None
    if target is None:
        target = DistributedMatrix(new_desc, materialized=source.materialized,
                                   dtype=source.dtype)
        entry = payload_nbytes(target)
    programs = _walk_programs(plan, views[0].size, memory_bandwidth)
    results = [RedistributionResult(
        matrix=target if rank < new_desc.grid.size else None, elapsed=0.0,
        total_bytes_moved=total_wire,
        payload_nbytes=source.desc.global_nbytes, steps=plan.num_steps,
        messages=messages, bytes_moved=moved, local_copies=local)
        for rank, (_ops, (messages, moved, local)) in enumerate(programs)]

    def then(_run):
        # Each message's one copy (see "Data path"), before delivery.
        for rank in range(len(programs) if source.materialized else 0):
            for rank_step in plan.rank_steps(rank):
                for msg, dst_rank, _nbytes in rank_step.sends:
                    copy_rect(source, rank, target, dst_rank,
                              msg.row_blocks, msg.col_blocks)

    return walk.complete(views, t0, [ops for ops, _ in programs], results,
                         entry, then)
