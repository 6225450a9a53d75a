"""Closed-form redistribution walk: a whole ``redistribute`` or
``checkpoint_redistribute`` as one flat loop, delivered in one batch.

Each step of a contention-free schedule is a partial permutation (§3.2),
so once the run's state proves nothing else can touch the network, what
the live driver does — broadcast, barriers, pack/unpack sleeps, sends,
receives, disk holds — is a pure function of the ranks' entry times and
the members' NIC engine state.  Ranks join a rendezvous at entry and
again after the live entry barrier; the gate (:func:`_admit`), the
order model for tied grants (:func:`_order`) and what is booked are
described in ``docs/phantom.md`` ("Redistribution walk").  Whatever the
walk cannot prove exact goes back to the live driver at the instant the
ranks joined, which is where the live driver would have started.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import lru_cache
from typing import Callable, Generator, Optional

from repro.mpi import fastcoll
from repro.mpi.comm import _COLL_TAG_BASE
from repro.mpi.datatypes import HEADER_BYTES
from repro.mpi.fastcoll import CollSim, LiveCall, Wire
from repro.simulate import Event
from repro.simulate.engine import (
    HANDLER_BATCH,
    HANDLER_EVENT,
    HANDLER_RESUME,
    Process,
)

#: Op codes of the per-rank programs: ``(SLEEP, seconds)``,
#: ``(SEND, dst, payload_nbytes, key, mode)`` (nonblocking; mode 0: a
#: point-to-point send, 1: a collective's first send, made by the
#: arriving rank, 2: a collective send made by its drains),
#: ``(RECV, key, unpack_bandwidth_or_None)``, ``(WAIT,)`` (all sends),
#: ``(MARK, name)`` (record the rank's clock in ``Walk.marks``).
SLEEP, SEND, RECV, WAIT, MARK = range(5)

#: ``waiting`` marker of a rank blocked in a WAIT op.
_SENDS = object()

#: Pending-record count above which the sole-tenancy scan is skipped
#: (the walk declines): paper workloads never queue more than ~50.
_SCAN_LIMIT = 64


def _table_ops(table, payload_nb: int, name: str) -> tuple:
    """Per rank, a :mod:`~repro.mpi.fastcoll` op table as walk ops:
    blocking sends are the generator broadcast's point-to-point sends
    (mode 0, then a WAIT), nonblocking ones a live collective's (mode 1
    for the rank's first op, 2 for the drains' sends).  The k-th send
    of a rank pair meets its k-th receive: ``(name, src, k)`` keys it."""
    out = []
    for rank, prog in enumerate(table.ops):
        ops: list = []
        seen: Counter = Counter()           # ops so far per (src, dst)
        for op in prog:
            if op[0] == fastcoll.WAIT:
                ops.append((WAIT,))
                continue
            pair = (rank, op[1]) if op[0] == fastcoll.SEND else (op[1], rank)
            key = (name, pair[0], seen[pair])
            seen[pair] += 1
            if op[0] == fastcoll.RECV:
                ops.append((RECV, key, None))
            elif op[2]:
                ops += [(SEND, op[1], payload_nb, key, 0), (WAIT,)]
            else:
                ops.append((SEND, op[1], payload_nb, key, 2 if ops else 1))
        out.append(tuple(ops))
    return tuple(out)


@lru_cache(maxsize=64)
def barrier_ops(size: int) -> tuple:
    """Per rank, the live ``Comm.barrier`` as walk ops."""
    return _table_ops(fastcoll.barrier_table(size), 0, "barrier")


@lru_cache(maxsize=64)
def bcast_ops(size: int, payload_nb: int) -> tuple:
    """Per rank, ``Comm.bcast`` from rank 0 of a non-phantom payload
    (blocking point-to-point sends down the binomial tree) as walk ops."""
    return _table_ops(fastcoll.bcast_table(size), payload_nb, "bcast")


def closed_form(gen):
    """The return value of a generator that finishes without yielding
    (an operation booked in closed form, e.g. ``Disk.write(..., start)``)."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("closed-form operation yielded")


class _Rendezvous:
    __slots__ = ("size", "walk", "arrived", "live", "joined", "snapshot")

    def __init__(self, size: int, walk: Callable):
        self.size = size
        self.walk = walk
        self.arrived = 0
        self.live = False
        self.joined: list = []       # (comm view, event), in join order
        self.snapshot: tuple = ()

    def finish(self) -> None:
        """Walk now, or hand every joined rank back to the live driver
        at this instant, in join order."""
        comm = self.joined[0][0]
        env = comm.env
        now = env.now
        views = [view for view, _ev in self.joined]
        outcomes = None
        if len(views) == self.size and _snapshot(comm) == self.snapshot:
            outcomes = self.walk(views, now)
        if outcomes is None:
            self.live = True
            env.schedule_many((ev, None, now) for _v, ev in self.joined)
            return
        order = sorted(range(self.size), key=lambda i: (
            outcomes[i][1], views[i].rank))
        env.schedule_many((self.joined[i][1], outcomes[i][0],
                           outcomes[i][1]) for i in order)

    def settle(self) -> None:
        """The decision record of an entry rendezvous: decide once no
        member is still due to resume at this instant (re-queued behind
        those that are)."""
        if self.live:
            return
        comm = self.joined[0][0]
        env = comm.env
        if len(self.joined) < self.size and _resumes_now(
                env, comm.world.machine.network.replay):
            env.call_at(env.now, env.handler_id(_Rendezvous.settle), self)
            return
        self.finish()


def attempt(comm, walk: Callable[[list, float], Optional[list]], *,
            entry: bool = False) -> Generator:
    """Join this redistribution's rendezvous; returns the rank's walked
    result, or None when it must run the live driver.

    ``walk(views, t0)`` is called once, with every rank's comm view in
    join order, and returns ``(result, completion)`` per view, or None to
    decline.  After the entry barrier the last joiner calls it: nothing
    but the driver runs between the barrier's exit and the join, so
    members released at one instant all join at it.  At ``entry`` the
    caller's code precedes the join, so the first joiner queues a
    decision record at its own instant instead: the walk runs there if
    every member has joined by then, else the joined ranks go live at
    that same instant.
    """
    shared = comm._shared
    calls = getattr(shared, "_redist_walks", None)
    if calls is None:
        calls = shared._redist_walks = {}
    key = comm._coll_seq            # in step on every rank (SPMD)
    env = comm.env
    call = calls.get(key)
    if call is None:
        call = calls[key] = _Rendezvous(comm.size, walk)
        # After the entry barrier every exit must already be scheduled
        # (its collective finished), or a member could join later.
        call.live = not _admit(comm) or (
            not entry and _COLL_TAG_BASE + key - 1 in shared._fast_calls)
        if not call.live:
            call.snapshot = _snapshot(comm)
            if entry:
                env.call_at(env.now, env.handler_id(_Rendezvous.settle),
                            call)
    call.arrived += 1
    if call.arrived == call.size:
        del calls[key]
    if call.live:
        return None
    ev = Event(env)
    call.joined.append((comm, ev))
    if call.arrived == call.size and not entry:
        call.finish()
    outcome = yield ev
    return outcome


def _snapshot(comm) -> tuple:
    """What any foreign activity between the joins would have changed."""
    machine = comm.world.machine
    network = machine.network
    disk = machine.disk
    return (comm.env._live_processes, network.stats.messages,
            network.replay._seq,
            disk.bytes_written, disk.bytes_read)


def _admit(comm) -> bool:
    """Gate conditions (i)-(iii) (docs/phantom.md, "Redistribution
    walk"); the callers check (iv), the schedule."""
    fast = comm._fastcoll()
    if fast is None or not fast.quiet:
        return False
    world = comm.world
    env = world.env
    if env._live_processes != comm.size:
        return False
    machine = world.machine
    network = machine.network
    nodes = comm._shared.nodes
    bandwidth = network.nodes[nodes[0]].nic.bandwidth
    if any(network.nodes[node].nic.bandwidth != bandwidth
           for node in nodes):
        return False
    replay = network.replay
    if replay._unresolved:
        return False
    now = env.now
    on_wire = sum(end > now for end in replay._act_fast)
    if (on_wire + comm.size) * bandwidth > network.backplane_bandwidth:
        return False
    lock = machine.disk._lock
    if lock.count or lock.queued:
        return False
    return _alone(env, replay, now)


def _resumed(record, env, replay) -> Optional[bool]:
    """What a queued record does: None if inert (a pump with nothing to
    do), True if it only resumes processes, False if anything else (a
    framework arrival, a wake pass, a callback)."""
    _when, _prio, _seq, hid, arg = record
    if hid == HANDLER_RESUME:
        return True
    if hid == replay._h_pump or (
            hid == env._handler_ids.get(LiveCall._on_pump)
            and not arg.sim.heap):
        return None
    if hid not in (HANDLER_EVENT, HANDLER_BATCH):
        return False
    callbacks = [callback
                 for event in ((arg,) if hid == HANDLER_EVENT else arg.members)
                 for callback in event.callbacks or ()]
    if not callbacks:
        return None
    return all(getattr(callback, "__func__", None) is Process._resume
               for callback in callbacks)


def _alone(env, replay, now: float) -> bool:
    """Every queued record is inert or resumes a member (the only live
    processes) at ``now``."""
    if len(env._queue) > _SCAN_LIMIT:
        return False
    return all(kind is None or (kind and record[0] == now)
               for record in env.pending()
               for kind in [_resumed(record, env, replay)])


def _order(a, b, flows: list) -> Optional[bool]:
    """Whether kernel context ``a`` ran before ``b`` (None: cannot tell).

    Contexts, each opening with the instant it runs at:
    ``("join", t, index)`` — resumed out of the entry barrier, in join
    order; ``("batch", t, flow, part)`` — inside the completion batch of
    the point-to-point flows ending at ``t``, whose members run in
    finalization order ``(t_hold, registration)``: part 0 deposits (and
    pushes the waiting receiver's get record), part 1 resumes the
    blocked sender inline; ``("record", t, pusher, step)`` — a record
    popped at ``t``, pushed by context ``pusher`` as its ``step``-th
    action.  A batch is queued when its first member finalizes (by that
    member's ``t_hold``), so it pops before any record for ``t`` pushed
    after that.
    """
    if a is None or b is None:
        return None
    if a[1] != b[1]:
        return a[1] < b[1]
    kind = a[0]
    if kind != b[0]:
        if "join" in (kind, b[0]):
            return None
        record, batch = (a, b) if kind == "record" else (b, a)
        # The batch record was queued when its first member finalized,
        # no later than this member's t_hold.
        if record[2] is None or record[2][1] <= flows[batch[2]][7]:
            return None
        return record is b
    if kind == "join":
        return a[2] < b[2]
    if kind == "record":
        if a[2] == b[2]:
            return a[3] < b[3]
        return _order(a[2], b[2], flows)
    if a[2] == b[2]:
        return a[3] < b[3]
    fa, fb = flows[a[2]], flows[b[2]]
    if fa[7] != fb[7]:
        return fa[7] < fb[7]
    return _registered_before(fa[5], fb[5], flows)


def _registered_before(a, b, flows: list) -> Optional[bool]:
    """Order of two registrations ``(context, step)``; None: unknown."""
    if a is None or b is None:
        return None
    if a[0] == b[0]:
        return a[1] < b[1]
    return _order(a[0], b[0], flows)


def _kernel_sorted(items, before) -> Optional[list]:
    """``items`` in kernel order by the pairwise ``before``, or None if
    any pair cannot be told (insertion sort: the lists are tiny)."""
    ranked: list = []
    for item in items:
        at = len(ranked)
        for pos, other in enumerate(ranked):
            first = before(item, other)
            if first is None:
                return None
            if first:
                at = min(at, pos)
        ranked.insert(at, item)
    return ranked


def complete(views: list, t0: float, programs: list, results: list,
             entry: Optional[int] = None,
             then: Optional[Callable] = None) -> Optional[list]:
    """Walk ``programs`` from ``t0`` (or, when ``entry`` gives the
    broadcast payload, from the exits of the entry broadcast and barrier
    walked first), commit, call ``then(walk)`` and fill in each result's
    ``elapsed``; the ``join`` outcomes, or None."""
    run = Walk(views[0])
    order = [view.rank for view in views]
    starts = [t0] * len(order)
    if entry is not None:
        got = run.entry(entry, t0, order)
        if got is None:
            return None
        starts, order = got
    times = run.run(programs, starts, order)
    if times is None:
        return None
    run.commit(views, 1 if entry is None else 3)
    if then is not None:
        then(run)
    for result, start, done in zip(results, starts, times):
        result.elapsed = done - start
    return [(results[view.rank], times[view.rank]) for view in views]


def _resumes_now(env, replay) -> bool:
    """Whether a queued record resumes a process at this instant."""
    return any(record[0] == env.now and _resumed(record, env, replay)
               for record in env.pending())


class Walk(Wire):
    """The flat loop over a scratch copy of the members' live engine
    state (see module docstring), costing its hops on the inherited
    :class:`~repro.mpi.fastcoll.Wire`.  ``run`` computes; ``commit``
    books the result into the live network, so a declined walk leaves no
    trace."""

    #: CollSim pacing: drain sends only at their start times, as the
    #: live collective's pump records do.
    paced = True

    def __init__(self, comm):
        network = comm.world.machine.network
        self.nodes = comm._shared.nodes
        super().__init__(network, {
            node: list(network.nodes[node].nic.fp_free)
            for node in self.nodes})
        self.comm = comm
        self.end_holds: list[float] = []
        self.payload_bytes = 0
        self.first_done = 0.0
        #: Whether every hop so far found its engines free (the live
        #: replay then finalizes each at registration).
        self.quick = True
        self.context: list = []
        self.table: list = []
        self.marks: dict = {}

    def hop(self, src: int, dst: int, nbytes: int, start: float,
            t_arrive: float, t_hold: float) -> float:
        """``Wire.hop`` plus the walk's own bookkeeping."""
        end = Wire.hop(self, src, dst, nbytes, start, t_arrive, t_hold)
        if t_hold > t_arrive:
            self.quick = False
        self.end_holds.append(self.engines[src][0])
        self.payload_bytes += nbytes - HEADER_BYTES
        return end

    def entry(self, payload: int, t0: float,
              join_order: list) -> Optional[tuple]:
        """Walk the entry broadcast and barrier of ranks that joined at
        ``t0``; ``(exit time per rank, exit order)`` or None.

        Closed form when every hop finds its engines free, so the live
        replay finalizes each at registration: the barrier's
        :class:`~repro.mpi.fastcoll.CollSim` then runs exactly as a
        synchronous, paced one fed the arrivals in kernel order, with
        its pending sends drained at each start before the next arrival;
        each drain's exits are delivered sorted by ``(time, cause)``.
        """
        size = len(join_order)
        times = self.run(bcast_ops(size, payload), [t0] * size, join_order)
        if times is None:
            return None
        arrivals = _kernel_sorted(range(size), lambda a, b: _order(
            self.context[a], self.context[b], self.table))
        if arrivals is None or not self.quick:
            return None
        sim = CollSim("barrier", self.nodes, self)
        drains = []
        for rank in arrivals:
            while sim.heap and sim.heap[0][0] < times[rank]:
                sim.drain(sim.heap[0][0])
                drains.append(sim.take_resolved())
            if sim.heap and sim.heap[0][0] == times[rank]:
                return None     # a pump and an arrival race at one instant
            drains.append(sim.arrive(rank, times[rank], None))
        while sim.heap:
            sim.drain(sim.heap[0][0])
            drains.append(sim.take_resolved())
        if not self.quick:
            return None
        exits = [r for drain in drains
                 for r in sorted(drain, key=lambda r: (r[1], r[3]))]
        exits.sort(key=lambda r: r[1])      # stable: drain order at ties
        for rank, when, _value, _cause in exits:
            times[rank] = when
        return times, [r[0] for r in exits]

    def run(self, programs: list, starts: list,
            join_order: list) -> Optional[list[float]]:
        """Per-rank completion times of ``programs`` (indexed by rank)
        started at ``starts``, or None when a grant tie cannot be
        ordered."""
        overhead = self.network.software_overhead
        nodes = self.nodes
        rows = [self.engines[node] for node in nodes]
        n = len(programs)
        pc = [0] * n
        clock = list(starts)
        # The kernel context each rank runs in (see _order) and the
        # actions it has taken there; None once the order is unknown.
        context: list = [None] * n
        for idx, rank in enumerate(join_order):
            context[rank] = ("join", starts[rank], idx)
        steps = [0] * n
        waiting: list = [None] * n            # mailbox key, or _SENDS
        pending: list = [None] * n            # id of the outstanding send
        mail: dict = {}
        # One record per flow: [src, mailbox key, payload bytes, start,
        # t_arrive, registration, end, t_hold, send mode].
        flows: list = []
        grants: list = []                     # (grant time, dst, flow id)
        push = heapq.heappush

        def advance(rank: int) -> None:
            ops = programs[rank]
            i = pc[rank]
            t = clock[rank]
            ctx = context[rank]
            step = steps[rank]
            stop = len(ops)
            while i < stop:
                op = ops[i]
                code = op[0]
                if code == SLEEP:
                    t = t + op[1]
                    ctx = ("record", t, ctx, step + 1) if ctx else None
                    step = 0
                elif code == SEND:
                    t_arrive = t + overhead
                    grant = rows[rank][0]
                    if t_arrive >= grant:
                        grant = t_arrive
                    step += 1
                    pending[rank] = fid = len(flows)
                    flows.append([rank, op[3], op[2], t, t_arrive,
                                  (ctx, step) if ctx and op[4] < 2
                                  else None, None, None, op[4]])
                    push(grants, (grant, op[1], fid))
                elif code == RECV:
                    got = mail.pop((rank, op[1]), None)
                    if got is None:
                        waiting[rank] = op[1]
                        break
                    end, nb, fid = got
                    if end > t:
                        # Resumed by the get record the deposit pushes.
                        t = end
                        ctx = (("record", end, ("batch", end, fid, 0), 1)
                               if flows[fid][8] == 0 else None)
                    elif end < t and ctx:
                        # Matched at once: a get record pushed now.
                        ctx = ("record", t, ctx, step + 1)
                    else:
                        ctx = None      # deposit and post race at t
                    step = 0
                    if op[2] is not None:       # the unpack sleep
                        t = t + nb / op[2]
                        ctx = ("record", t, ctx, 1) if ctx else None
                elif code == MARK:
                    self.marks[op[1]] = t
                else:
                    fid = pending[rank]
                    end = flows[fid][6]
                    if end is None:
                        waiting[rank] = _SENDS
                        break
                    if end > t:
                        # Resumed inline by the completion batch.
                        t = end
                        ctx = (("batch", end, fid, 1)
                               if flows[fid][8] == 0 else None)
                        step = 0
                    elif end == t:
                        ctx = None      # completion and wait race at t
                    pending[rank] = None
                i += 1
            pc[rank] = i
            clock[rank] = t
            context[rank] = ctx
            steps[rank] = step

        for rank in join_order:
            advance(rank)

        pop = heapq.heappop
        while grants:
            grant, dst, fid = pop(grants)
            group = [fid]
            while grants and grants[0][0] == grant and grants[0][1] == dst:
                group.append(pop(grants)[2])
            if len(group) > 1:
                group = _kernel_sorted(group, lambda a, b: _registered_before(
                    flows[a][5], flows[b][5], flows))
                if group is None:
                    return None
            for fid in group:
                flow = flows[fid]
                src, key, payload, start, t_arrive = flow[:5]
                t_hold = rows[dst][1]
                if grant >= t_hold:
                    t_hold = grant
                flow[7] = t_hold
                flow[6] = end = self.hop(nodes[src], nodes[dst],
                                         payload + HEADER_BYTES,
                                         start, t_arrive, t_hold)
                mail[(dst, key)] = (end, payload, fid)
                if waiting[dst] == key:
                    waiting[dst] = None
                    advance(dst)
                if waiting[src] is _SENDS:
                    waiting[src] = None
                    advance(src)
        if any(pc[rank] < len(programs[rank]) for rank in range(n)):
            return None
        self.context = context
        self.table = flows
        self.first_done = min(clock)
        return clock

    def commit(self, views: list, collectives: int) -> None:
        """Book the walk into the live state exactly as the live driver
        would have: engine state, wire intervals, counters, and the tags
        of the ``collectives`` it walked on every rank's view."""
        network = self.network
        replay = network.replay
        for node, row in self.engines.items():
            network.nodes[node].nic.fp_free[:] = row
        self.book()
        # A later flow registers after the first completion fires and
        # samples only intervals still open then (the replay prunes the
        # rest lazily anyway).
        for end_hold in self.end_holds:
            if end_hold > self.first_done:
                heapq.heappush(replay._act_fast, end_hold)
        replay._seq += self.messages
        comm_stats = self.comm.stats
        comm_stats.sends += self.messages
        comm_stats.bytes_sent += self.payload_bytes
        comm_stats.collectives += len(views) * collectives
        for view in views:
            view._coll_seq += collectives
