"""Phantom fast path for collectives: arithmetic replay of the tree
algorithms, delivered through batched completion events.

Why
---
The collectives in :mod:`repro.mpi.comm` are pure Python generators: a
P-rank broadcast schedules O(P) transfers, each of which costs ~10 heap
events (process start, software-overhead timeout, two NIC resource
grants, wire timeout, latency timeout, mailbox put/get, request wait).
For phantom payloads nothing in that machinery carries information — the
payload is a byte count and the algorithms route it deterministically —
so the completion *times* of every rank can be computed with plain
arithmetic and delivered through one packed
:class:`~repro.simulate.engine.Batch` record per distinct completion
time.

Equivalence contract
--------------------
The fast path must produce **identical simulated clocks, values and
``CommStats``/``NetworkStats`` counters** to the generator path it
replaces (see ``docs/phantom.md`` and
``tests/test_fastcoll_equivalence.py``).  Live transfers are resolved by
the shared network-level replay (:mod:`repro.mpi.fastp2p`), whose
``NetReplay`` is the live :class:`CollSim` sender (:class:`Wire` is the
detached one).  It models the full transfer cost chain — software
overhead, per-NIC FIFO serialization with the endpoint contention
penalty, wire time, propagation latency, the same-node shared-memory
path, and exact backplane flow-sharing — and persists NIC availability
across calls via ``Nic.fp_free`` (``[tx_free, rx_free]``), so fast
collectives, fast point-to-point traffic and each other's flows all see
one consistent wire.  Communicators with shared nodes
(``cpus_per_node > 1``) and machines with oversubscribable backplanes
therefore ride the fast path too; only real payloads and worlds with the
fast path switched off (``World(fastpath=False)``) fall back to the
generator path.

Op tables
---------
Each algorithm is written once, as a cached :class:`CollTable` (see
``TABLES``): per rank, the ordered ops it runs and where each value
comes from and goes; no other code writes a collective's pattern.
:class:`CollSim` interprets it with a program counter per rank;
``Comm._collective`` runs it as real messages (the generator path, the
independent *timing* reference); the flat kernels, the redistribution
walk, the one-call SUMMA sweep and the LU pivot-round table read it.
The event kernel's tie-order rules live on the ops.

On exact-backplane networks a send's completion may not be computable at
registration (a flow's wire time depends on what is on the wire when it
starts); :class:`CollSim` therefore consumes completions through
callbacks, which the replay fires inline whenever it is provably safe
and defers through its pump otherwise.

Delivery is a rendezvous (:class:`LiveCall`) for barrier/reduce/gather/
allgather/alltoall.  Eligibility is rank-locally decidable (payload must
be :class:`Phantom` — type-symmetric SPMD usage is the same contract
real MPI puts on datatypes).  Ranks register their arrival; completions
are computed progressively (a reduce leaf resolves at its own send, the
root when the whole tree is in) and scheduled via ``schedule_many``.
A broadcast cannot be gated rank-locally (only the root sees the
payload), so a standalone ``bcast`` runs its generator tree, each hop
a replayed point-to-point send; the one-call SUMMA sweep and the LU
walk read the broadcast's table instead.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional

from repro.mpi.datatypes import HEADER_BYTES, payload_nbytes
from repro.mpi.fastp2p import net_replay
from repro.simulate import Environment, Event


# ---------------------------------------------------------------------------
# Transfer-cost mirror
# ---------------------------------------------------------------------------

class Wire:
    """Arithmetic mirror of ``Network.transfer`` on a detached, quiet
    network (the closed-form cost tables), in node indices.

    ``engines`` maps a node index to a mutable ``[tx_free, rx_free]``
    pair of scratch state — a hypothetical replay, never live traffic;
    live sends go through the shared :class:`~repro.mpi.fastp2p.
    NetReplay` instead.  Callers must feed sends in nondecreasing start
    order — per-NIC FIFO then matches the event kernel's grant order.
    Same-node sends take the shared-memory path, so shared-node grids
    replay exactly too.  Counters stay on the wire until :meth:`book`
    writes them into the network.  It is a synchronous :class:`CollSim`
    sender.
    """

    __slots__ = ("network", "engines", "messages", "bytes", "busy",
                 "sent", "received")

    #: Completions are synchronous: CollSim may cascade its sends.
    paced = False

    def __init__(self, network, engines: Optional[dict] = None):
        self.network = network
        self.engines = engines if engines is not None else {}
        self.messages = 0
        self.bytes = 0
        self.busy = network.stats.busy_time
        self.sent: defaultdict = defaultdict(int)    # wire bytes per node
        self.received: defaultdict = defaultdict(int)

    def send_flow(self, src: int, dst: int, payload_nb: int, start: float,
                  on_complete: Callable[[float], None]) -> None:
        """Cost one ``_send_raw`` from node ``src`` to node ``dst`` and
        hand its completion (= mailbox deposit) time to ``on_complete``,
        synchronously."""
        net = self.network
        if src == dst:
            nbytes = payload_nb + HEADER_BYTES
            end = start + (net.memory_latency +
                           nbytes / net.nodes[src].memory_bandwidth)
            self.messages += 1
            self.bytes += nbytes
            self.busy += end - start
            on_complete(end)
            return
        t_arrive = start + net.software_overhead
        engines = self.engines
        t_hold = max(t_arrive, engines.setdefault(src, [0.0, 0.0])[0],
                     engines.setdefault(dst, [0.0, 0.0])[1])
        on_complete(self.hop(src, dst, payload_nb, start, t_arrive, t_hold))

    def hop(self, src: int, dst: int, payload_nb: int, start: float,
            t_arrive: float, t_hold: float) -> float:
        """Hold both nodes' engines from ``t_hold`` for the wire time
        (contended when the hold starts late); count the flow; its
        completion time."""
        net = self.network
        nodes = net.nodes
        nbytes = payload_nb + HEADER_BYTES
        # min(), spelled out: this is the redistribution walk's hot loop.
        bw = nodes[src].nic.bandwidth
        if nodes[dst].nic.bandwidth < bw:
            bw = nodes[dst].nic.bandwidth
        wire = nbytes * (1.0 / bw + net.per_byte_overhead)
        if t_hold > t_arrive:
            wire *= 1.0 + net.contention_penalty
        engines = self.engines
        engines[src][0] = engines[dst][1] = end_hold = t_hold + wire
        end = end_hold + net.latency
        self.messages += 1
        self.bytes += nbytes
        self.busy += end - start
        self.sent[src] += nbytes
        self.received[dst] += nbytes
        return end

    def book(self) -> None:
        """Write the counters into the network and its NICs."""
        nodes = self.network.nodes
        for node, nbytes in self.sent.items():
            nodes[node].nic.bytes_sent += nbytes
        for node, nbytes in self.received.items():
            nodes[node].nic.bytes_received += nbytes
        stats = self.network.stats
        stats.messages += self.messages
        stats.bytes += self.bytes
        stats.busy_time = self.busy


# ---------------------------------------------------------------------------
# Op tables: each algorithm's per-rank program, written once
# ---------------------------------------------------------------------------

#: Op codes.  ``(SEND, dst, blocking, frm, index)`` sends register
#: ``frm`` (None: an empty message, whatever the payload), or element
#: ``index`` of it; ``(RECV, src, into, index, bump)`` receives from
#: ``src`` (a rank, or ``ANY_SOURCE``) and puts the value ``into`` place,
#: ``bump`` saying whether a message already waiting costs a hop (see
#: :func:`reduce_table`); ``(WAIT,)`` waits for the outstanding isend.
#: Programs supplied at arrival (see :data:`PROGRAM`) also use
#: ``(PUT, dst, nbytes, stats)``, a blocking send of ``nbytes`` booked to
#: the ``CommStats`` ``stats``, and ``(COMPUTE, seconds)``, local work.
SEND, RECV, WAIT, PUT, COMPUTE = range(5)
#: A rank's registers: its running value (first its payload), its items.
ACC, ITEMS = range(2)
#: Where a received value goes: dropped (the rank keeps its own), as the
#: new running value, combined into it (``op(received, running)``), or
#: into the item list at ``index`` (None: at the sender's rank).
KEEP, REPLACE, COMBINE, STORE = range(4)
#: Wildcard source, as ``repro.mpi.comm.ANY_SOURCE``.
ANY_SOURCE = -1


class CollTable(NamedTuple):
    """One algorithm on one communicator size (and root).  Per rank: the
    ordered ops it runs; None or ``(index, part)`` — its item list starts
    with its payload (``part`` None) or element ``part`` at ``index``;
    the register it returns (None: nothing); its sends' destinations and
    its receives' sources, in program order."""

    ops: tuple
    own: tuple
    out: tuple
    dests: tuple
    srcs: tuple


def _table(ops: list, own: list, out: list) -> CollTable:
    def peers(code: int) -> tuple:
        return tuple(tuple(op[1] for op in prog if op[0] == code)
                     for prog in ops)
    return CollTable(tuple(map(tuple, ops)), tuple(own), tuple(out),
                     peers(SEND), peers(RECV))


def _exchange(dst: int, frm, index, src: int, into: int, store_at) -> list:
    """One ``isend``, ``recv``, ``wait`` step of a ring or exchange."""
    return [(SEND, dst, False, frm, index),
            (RECV, src, into, store_at, False),
            (WAIT,)]


@lru_cache(maxsize=64)
def barrier_table(size: int, root: int = 0) -> CollTable:
    """``Comm.barrier``: dissemination, ``ceil(log2(size))`` rounds."""
    rounds = (size - 1).bit_length()
    ops = [[op for k in range(rounds)
            for op in _exchange((rank + (1 << k)) % size, None, None,
                                (rank - (1 << k)) % size, KEEP, None)]
           for rank in range(size)]
    return _table(ops, [None] * size, [None] * size)


@lru_cache(maxsize=1024)
def bcast_table(size: int, root: int = 0) -> CollTable:
    """``Comm.bcast``: binomial tree; a rank receives from the rank its
    lowest set relative bit points at, then forwards with blocking sends
    to ``rel + mask`` for the masks below that bit, largest first."""
    ops = []
    for rank in range(size):
        rel = (rank - root) % size
        prog: list = []
        if rel:
            low = rel & -rel
            prog.append((RECV, (rel - low + root) % size, REPLACE, None,
                         False))                # no bump: see reduce_table
        else:
            low = 1 << (size - 1).bit_length()
        mask = low >> 1
        while mask:
            if rel + mask < size:
                prog.append((SEND, (rel + mask + root) % size, True, ACC,
                             None))
            mask >>= 1
        ops.append(prog)
    return _table(ops, [None] * size, [ACC] * size)


@lru_cache(maxsize=256)
def reduce_table(size: int, root: int = 0) -> CollTable:
    """``Comm.reduce``: binomial tree; a rank combines its children's
    partials, lowest mask first, then sends to its parent (blocking).

    A receive of a message already waiting bumps the hop class: the
    kernel still spends one event on the immediate get, so the rank
    sends one event after a same-instant peer that consumed nothing
    (``tests/test_reduce_synchronized.py``).  The broadcast's and the
    gather root's receives never had the bump, and adding it would
    reorder tied detached broadcast sends, so it stays per op."""
    ops = []
    for rank in range(size):
        rel = (rank - root) % size
        prog: list = []
        mask = 1
        while mask < size:
            if rel & mask:
                prog.append((SEND, ((rel & ~mask) + root) % size, True, ACC,
                             None))
                break
            if rel | mask < size:
                prog.append((RECV, ((rel | mask) + root) % size, COMBINE,
                             None, True))
            mask <<= 1
        ops.append(prog)
    return _table(ops, [None] * size,
                  [ACC if rank == root else None for rank in range(size)])


@lru_cache(maxsize=256)
def gather_table(size: int, root: int = 0) -> CollTable:
    """``Comm.gather``: every other rank sends to the root (blocking),
    which receives ``size - 1`` times from ``ANY_SOURCE``."""
    ops: list = [[(SEND, root, True, ACC, None)]] * size
    ops[root] = [(RECV, ANY_SOURCE, STORE, None, False)] * (size - 1)
    at_root = [rank == root for rank in range(size)]
    return _table(ops, [(root, None) if r else None for r in at_root],
                  [ITEMS if r else None for r in at_root])


@lru_cache(maxsize=64)
def allgather_table(size: int, root: int = 0) -> CollTable:
    """``Comm.allgather``: ring; step ``s`` passes item ``rank - s`` to
    the right and stores item ``rank - s - 1`` from the left."""
    ops = [[op for s in range(size - 1)
            for op in _exchange((rank + 1) % size, ITEMS, (rank - s) % size,
                                (rank - 1) % size, STORE,
                                (rank - s - 1) % size)]
           for rank in range(size)]
    return _table(ops, [(rank, None) for rank in range(size)],
                  [ITEMS] * size)


@lru_cache(maxsize=64)
def alltoall_table(size: int, root: int = 0) -> CollTable:
    """``Comm.alltoall``: pairwise exchange; step ``s`` sends payload
    element ``rank + s`` there and receives from ``rank - s``."""
    ops = [[op for s in range(1, size)
            for op in _exchange((rank + s) % size, ACC, (rank + s) % size,
                                (rank - s) % size, STORE, (rank - s) % size)]
           for rank in range(size)]
    return _table(ops, [(rank, rank) for rank in range(size)],
                  [ITEMS] * size)


#: The table of each collective kind, by name.
TABLES = {"barrier": barrier_table, "bcast": bcast_table,
          "reduce": reduce_table, "gather": gather_table,
          "allgather": allgather_table, "alltoall": alltoall_table}
#: The kind of a call whose ranks bring their own programs: each starts
#: empty and runs the op chunks its ``program`` iterator yields
#: (:meth:`CollSim.arrive`), returning nothing.
PROGRAM = "program"


# ---------------------------------------------------------------------------
# Progressive collective replay
# ---------------------------------------------------------------------------

class CollSim:
    """Pure-arithmetic replay of one collective call: an interpreter of
    the kind's :class:`CollTable` with a program counter per rank.

    Ranks are fed via :meth:`arrive`; :meth:`drain` executes pending
    sends whose start time is due.  Wire times come from ``sender``
    (detached scratch wire or the live network replay) through
    callbacks; newly resolved ``(rank, completion_time, value, cause)``
    tuples accumulate until :meth:`take_resolved`.  When a callback
    fires outside a drain (a deferred exact-backplane completion),
    ``on_progress`` tells the owner to drain and deliver.  No simulation
    objects are touched — the caller decides how completions become
    events.

    *Cause keys.*  Heap entries are ``(start, cause, seq, rank)`` and
    resolutions carry ``cause``: a ``(hop_class, exec, sub)`` key of the
    event that unblocked the rank, ``exec`` counting the replay's
    arrivals and transfer ends.  Equal-start sends contending for one
    NIC engine (ranks sharing a node) are then granted, and same-instant
    completions delivered, in the order the event kernel's causal chains
    would produce: first ranks resumed one event after a transfer end (a
    blocking sender at its own mailbox put, sub 0, then a receiver at
    its get, sub 1), then ranks resumed two events after (an isend's
    process-completion event, hop class 1).  Each op sets the key by its
    own rule, in :meth:`_wire_done` and :meth:`_advance`.
    """

    def __init__(self, kind: str, nodes: list[int], sender, *,
                 root: int = 0, op: Optional[Callable] = None,
                 stats=None):
        size = len(nodes)
        self.table = (_table([()] * size, [None] * size, [None] * size)
                      if kind == PROGRAM else TABLES[kind](size, root))
        self.size = size
        self.nodes = nodes                  # node index per member
        self.sender = sender
        self.op = op
        self.stats = stats                  # CommStats to mirror, or None
        self.on_progress: Optional[Callable[[], None]] = None
        self._resolved: list = []
        self._draining = False
        #: Paced senders defer completions, so future-start sends must
        #: wait for their start time (see NetReplay.paced); synchronous
        #: senders let drain cascade everything once all ranks are in.
        self.paced = sender.paced
        #: A ``PROGRAM`` call drains one hop class per record of an
        #: instant (see :meth:`drain`).
        self.levels = kind == PROGRAM
        self.n_arrived = 0
        self.t_cur = [0.0] * size
        self.heap: list[tuple[float, tuple, int, int]] = []
        self._seq = 0
        self._exec = 0                       # monotone replay-event index
        self.cause: list[tuple] = [(0, 0, 1)] * size
        self.resolved_count = 0
        self.pc = [0] * size
        #: Per rank, the op chunk it runs and, for a ``PROGRAM`` call, the
        #: iterator of its later chunks (None: the chunk is the program).
        self.prog = list(self.table.ops)
        self.more: list = [None] * size
        #: True while a rank cannot run: not arrived yet, blocked in a
        #: blocking send, or resolved.
        self.hold = [True] * size
        self.regs: list[list] = [[None, None] for _ in range(size)]
        #: Per destination, deposits ``(when, value, exec, src)`` in
        #: deposit order (chronological here), as the mailbox holds them.
        self.mail: list[list] = [[] for _ in range(size)]
        #: Per rank, the send it has queued or on the wire
        #: ``(dst, value, blocking, nbytes, stats)``, and a finished
        #: nonblocking send's ``(end, exec)`` until its WAIT.
        self.pend: list[Any] = [None] * size
        self.sent: list[Any] = [None] * size

    @property
    def finished(self) -> bool:
        # Mail left over is a message to a program yet to arrive.
        return self.resolved_count == self.size and not any(self.mail)

    def arrive(self, rank: int, now: float, payload: Any,
               program=None) -> list:
        """Rank ``rank`` enters at ``now``; ``program`` iterates over the
        op chunks it runs, for a ``PROGRAM`` call.  A program's rank may
        enter again once its last program ended, with its next one."""
        if program is not None:
            if self.more[rank] is not None:
                self.resolved_count -= 1
            self.more[rank] = program
            self.prog[rank] = ()
            self.pc[rank] = 0
        self.hold[rank] = False
        self.n_arrived += 1
        self.t_cur[rank] = now
        self._exec += 1
        self.cause[rank] = (0, self._exec, 1)
        regs = self.regs[rank]
        regs[ACC] = payload
        own = self.table.own[rank]
        if own is not None:
            items = regs[ITEMS] = [None] * self.size
            index, part = own
            items[index] = payload if part is None else payload[part]
        self._advance(rank)
        self.drain(now)
        return self.take_resolved()

    def drain(self, now: float, level: int = 0) -> None:
        """Execute due sends; with all ranks in, execute everything.

        A ``PROGRAM`` call stops at a due send whose hop class exceeds
        ``level``: its owner runs it at a later record of the instant."""
        self._draining = True
        try:
            force = not self.paced and self.n_arrived == self.size
            nodes = self.nodes
            while self.heap and (force or self.heap[0][0] <= now):
                if self.levels and self.heap[0][1][0] > level:
                    break
                start, _cause, _seq, rank = heapq.heappop(self.heap)
                dst, value, blocking, nbytes, stats = self.pend[rank]
                self.sender.send_flow(nodes[rank], nodes[dst], nbytes, start,
                                      self._wire_done(rank, dst, value,
                                                      blocking, nbytes, stats))
        finally:
            self._draining = False

    def take_resolved(self) -> list:
        """Resolutions since the last call."""
        out = self._resolved
        self._resolved = []
        return out

    def _wire_done(self, rank: int, dst: int, value: Any, blocking: bool,
                   nbytes: int, stats) -> Callable[[float], None]:
        """Completion continuation of the send just handed to the sender.

        One completion can unblock both endpoints at the same instant.
        A *blocking* sender resumes at its own mailbox-put fire, before
        the receiver's get scheduled right after it: sender first, cause
        ``(0, exec, 0)``.  An *isend* sender resumes only at its request
        process' completion event, scheduled during the put fire, so the
        receiver's get fires in between: receiver first, and the
        sender's cause is set at its WAIT.
        """
        def done(end: float) -> None:
            if stats is not None:
                stats.sends += 1
                stats.bytes_sent += nbytes
            self._exec += 1
            if blocking:
                self.cause[rank] = (0, self._exec, 0)
                self.t_cur[rank] = end
                self.hold[rank] = False
                self._advance(rank)             # before the receiver
            else:
                self.sent[rank] = (end, self._exec)
            self.mail[dst].append((end, value, self._exec, rank))
            self._advance(dst)
            if not blocking:
                self._advance(rank)             # after the receiver
            if not self._draining and self.on_progress is not None:
                self.sender.after_sweep(self.on_progress)
        return done

    def _advance(self, rank: int) -> None:
        """Run ``rank``'s program until it blocks or ends."""
        if self.hold[rank]:
            return
        prog = self.prog[rank]
        regs = self.regs[rank]
        pc = self.pc[rank]
        stop = len(prog)
        while True:
            if pc == stop:
                more = self.more[rank]
                prog = None if more is None else next(more, None)
                if prog is None:
                    break
                self.prog[rank] = prog
                pc = 0
                stop = len(prog)
                continue
            op = prog[pc]
            code = op[0]
            if code == SEND or code == PUT:
                if code == PUT:
                    _code, dst, nbytes, stats = op
                    value, blocking = None, True
                else:
                    _code, dst, blocking, frm, index = op
                    value = None if frm is None else regs[frm]
                    if index is not None:
                        value = value[index]
                    nbytes, stats = payload_nbytes(value), self.stats
                self.pend[rank] = (dst, value, blocking, nbytes, stats)
                self._seq += 1
                heapq.heappush(self.heap, (self.t_cur[rank],
                                           self.cause[rank], self._seq, rank))
                pc += 1
                if blocking:
                    self.hold[rank] = True
                    break
            elif code == RECV:
                box = self.mail[rank]
                for at, got in enumerate(box):
                    if op[1] == ANY_SOURCE or got[3] == op[1]:
                        break
                else:
                    break               # nothing to match yet: blocked
                when, value, exec_idx, sender = box.pop(at)
                if when > self.t_cur[rank]:
                    # Resumed by the get the deposit pushes.
                    self.cause[rank] = (0, exec_idx, 1)
                    self.t_cur[rank] = when
                elif op[4]:             # bump: see reduce_table
                    c = self.cause[rank]
                    self.cause[rank] = (c[0] + 1, c[1], c[2])
                into = op[2]
                if into == REPLACE:
                    regs[ACC] = value
                elif into == COMBINE:
                    regs[ACC] = self.op(value, regs[ACC])
                elif into == STORE:
                    regs[ITEMS][sender if op[3] is None else op[3]] = value
                pc += 1
            elif code == WAIT:
                if self.sent[rank] is None:
                    break
                end, exec_idx = self.sent[rank]
                self.sent[rank] = None
                if end >= self.t_cur[rank]:
                    # The isend's process event: two hops after the
                    # transfer end, so it follows a deposit that landed
                    # at the same instant (>=).
                    self.cause[rank] = (1, exec_idx, 0)
                    self.t_cur[rank] = end
                pc += 1
            else:               # COMPUTE: a sleep record resumes it
                self.t_cur[rank] += op[1]
                c = self.cause[rank]
                self.cause[rank] = (0, c[1], c[2])
                pc += 1
        self.pc[rank] = pc
        if pc == stop and not self.hold[rank]:
            self.hold[rank] = True
            self.resolved_count += 1
            out = self.table.out[rank]
            self._resolved.append((rank, self.t_cur[rank],
                                   None if out is None else regs[out],
                                   self.cause[rank]))


# ---------------------------------------------------------------------------
# Communicator-level state and the live rendezvous
# ---------------------------------------------------------------------------

class FastCollState:
    """Per-communicator routing record for the fast path.

    The live fast path needs no machine-shape conditions (the shared
    network replay handles NIC sharing and backplane flow-sharing
    exactly), but the *detached* closed forms gate on:

    * ``exclusive`` — every rank on its own single-CPU node, so no
      other job's traffic can touch this communicator's NICs.  The
      whole-call LU walk and ``Application.replay_iterations`` require
      it: their soundness argument is that a phantom operation's
      duration is a pure function of the configuration, which NIC
      sharing with concurrently-communicating jobs would break.
    * ``quiet`` — additionally, the communicator's worst-case
      concurrent flows stay within the backplane (the strict PR 2
      conditions); closed forms on non-quiet exclusive communicators
      drop only cross-flow backplane coupling (see docs/phantom.md).
    """

    __slots__ = ("shared", "exclusive", "quiet")

    def __init__(self, shared, exclusive: bool, quiet: bool):
        self.shared = shared
        self.exclusive = exclusive
        self.quiet = quiet

    def live_call(self, kind: str, tag, *, root: int = 0,
                  op: Optional[Callable] = None) -> "LiveCall":
        calls = self.shared._fast_calls
        call = calls.get(tag)
        if call is None:
            call = calls[tag] = LiveCall(self, kind, tag, root=root, op=op)
        return call


def build_state(shared) -> FastCollState:
    """Structural routing record of a communicator for the fast path.

    Always eligible: the shared network replay (repro.mpi.fastp2p)
    reproduces shared-node NIC queueing, the same-node memory path and
    backplane flow-sharing exactly, so no machine shape rules the fast
    path out anymore.  The per-call conditions (the switch, payload
    types) are checked by the callers in :mod:`repro.mpi.comm`.
    """
    machine = shared.world.machine
    spec = getattr(machine, "spec", None)
    nodes = shared.nodes
    net = machine.network
    bw_max = max(machine.nodes[n].nic.bandwidth for n in nodes)
    exclusive = (spec is not None and spec.cpus_per_node == 1
                 and len(set(nodes)) == len(nodes))
    quiet = (exclusive
             and len(nodes) * bw_max <= net.backplane_bandwidth)
    return FastCollState(shared, exclusive, quiet)


class LiveCall:
    """One in-flight rendezvous collective, bridging CollSim to events.

    Each rank's :meth:`join` registers its arrival and returns the event
    it must yield.  Completions resolve progressively; a *pump* event
    wakes the replay when a pending send's start time passes before the
    next rank arrives (so early completions — e.g. reduce leaves — fire
    at their true times, never late).
    """

    def __init__(self, state: FastCollState, kind: str, tag: int, *,
                 root: int = 0, op: Optional[Callable] = None):
        shared = state.shared
        self.shared = shared
        self.tag = tag
        self.env: Environment = shared.world.env
        self.sim = CollSim(kind, shared.nodes,
                           net_replay(shared.world.machine.network),
                           root=root, op=op, stats=shared.stats)
        self.sim.on_progress = self._on_progress
        self.events: dict[int, Event] = {}
        self._pump_at: Optional[float] = None
        #: Instants of the queued pump records (one record per instant)
        #: and of a queued level record (see CollSim.drain).
        self._pumps: set = set()
        self._level_at: Optional[float] = None
        #: One table entry shared by every LiveCall on this Environment
        #: (registered unbound, instance passed as the record argument).
        self._h_pump = self.env.handler_id(LiveCall._on_pump)
        self._h_level = self.env.handler_id(LiveCall._on_level)

    def join(self, rank: int, payload: Any, program=None) -> Event:
        ev = Event(self.env)
        self.events[rank] = ev
        now = self.env.now
        resolved = self.sim.arrive(rank, now, payload, program)
        self._finish_drain(now, resolved)
        return ev

    def _on_progress(self) -> None:
        """A deferred wire completion advanced the replay off-drain."""
        now = self.env.now
        self._finish_drain(now, self._drain(now))

    def _drain(self, now: float, level: int = 0) -> list:
        """Drain the replay at ``now``; returns the new resolutions."""
        self.sim.drain(now, level)
        return self.sim.take_resolved()

    def _finish_drain(self, now: float, resolved: list) -> None:
        if resolved:
            # Same-instant completions fire in cause order — the order
            # the event kernel's chains would resume the ranks.
            resolved.sort(key=lambda r: (r[1], r[3]))
            self.env.schedule_many(
                (self.events[rank], value, when)
                for rank, when, value, _cause in resolved)
        if self.sim.finished:
            self.shared._fast_calls.pop(self.tag, None)
            return
        heap = self.sim.heap
        if not heap:
            return
        nxt = heap[0][0]
        if nxt <= now:
            # A program's next hop class at this instant: one record
            # queued behind everything else due now.
            if self._level_at != now:
                self._level_at = now
                self.env.call_at(now, self._h_level, self)
        elif self._pump_at is None or nxt < self._pump_at:
            self._pump_at = nxt
            if nxt not in self._pumps:
                self._pumps.add(nxt)
                # One packed record — no Event object, no callback list.
                self.env.call_at(nxt, self._h_pump, self)

    def _on_pump(self) -> None:
        now = self.env.now
        self._pumps.discard(now)
        self._pump_at = None
        if self.sim.finished:
            return
        self._finish_drain(now, self._drain(now))

    def _on_level(self) -> None:
        self._level_at = None
        if self.sim.finished:
            return
        now = self.env.now
        heap = self.sim.heap
        self._finish_drain(now, self._drain(now, heap[0][1][0] if heap else 0))


# ---------------------------------------------------------------------------
# Detached replay (closed-form cost tables)
# ---------------------------------------------------------------------------

def detached_call(network, nodes: list[int], kind: str,
                  times: list[float], payloads: list, *,
                  root: int = 0, op: Optional[Callable] = None,
                  engines: Optional[dict] = None,
                  stats=None) -> list[float]:
    """Per-rank completion times of one collective replayed detachedly.

    ``times[i]`` is member ``i``'s arrival; the returned list holds its
    completion.  ``engines`` carries per-node NIC state across calls
    (scratch when None); ``stats`` mirrors ``CommStats`` sends/bytes and
    — through the wire — NIC and network counters, exactly as the live
    fast path would book them.  The closed-form primitive behind the
    whole-iteration LU walk: its two kinds have flat kernels when every
    member owns its node and all NICs are alike; the rest is CollSim's.
    """
    if engines is None:
        engines = {}
    if kind in ("bcast", "barrier") and len(set(nodes)) == len(nodes) > 1:
        nics = [network.nodes[node].nic for node in nodes]
        if len({nic.bandwidth for nic in nics}) == 1:
            eng = [engines.get(node) or engines.setdefault(node, [0.0, 0.0])
                   for node in nodes]
            table = TABLES[kind](len(nodes), root)
            if kind == "barrier":
                return _barrier_kernel(network, nics, eng, times, table,
                                       stats)
            return _bcast_kernel(network, nics, eng, times, table,
                                 payload_nbytes(payloads[root]), root, stats)
    return collsim_call(network, nodes, kind, times, payloads, root=root,
                        op=op, engines=engines, stats=stats)


def collsim_call(network, nodes, kind, times, payloads, *, root=0, op=None,
                 engines=None, stats=None) -> list[float]:
    """:func:`detached_call` through :class:`CollSim` over a scratch
    :class:`Wire` — the general path, and the reference the kernels are
    tested against."""
    wire = Wire(network, engines)
    sim = CollSim(kind, nodes, wire, root=root, op=op, stats=stats)
    out = list(times)
    # The last arrival's drain runs the heap dry (synchronous sender).
    for rank in sorted(range(len(nodes)), key=times.__getitem__):
        for member, when, _value, _cause in sim.arrive(rank, times[rank],
                                                       payloads[rank]):
            out[member] = when
    if stats is not None:
        wire.book()
    return out


def replay_chain(network, nodes: list[int],
                 steps: list[tuple], t0: float = 0.0) -> list[float]:
    """Per-rank completion times of a chain of collectives on a quiet
    network, starting synchronized at ``t0``.

    ``steps`` is a list of ``(kind, root, payloads)`` — each collective's
    arrivals are the previous one's completions.  Uses scratch engine
    state (a hypothetical replay, not live traffic) and records no
    stats.  This is the closed-form primitive behind the LU per-panel
    cost table.
    """
    from repro.mpi.ops import SUM
    times = [t0] * len(nodes)
    engines: dict = {}
    for kind, root, payloads in steps:
        times = detached_call(network, nodes, kind, times, payloads,
                              root=root, op=SUM, engines=engines)
    return times


# The kernels evaluate, hop for hop, the float expressions of ``Wire.hop``
# on flat per-member lists (``eng[i]``: member ``i``'s
# ``[tx_free, rx_free]`` row); only the visiting order of *independent*
# hops differs, hence the association of the ``busy_time`` sum.

def _hop_terms(network, nics, nbytes: int) -> tuple:
    """``(software overhead, latency, wire time, contended wire time)``."""
    wire = nbytes * (1.0 / nics[0].bandwidth + network.per_byte_overhead)
    return (network.software_overhead, network.latency, wire,
            wire * (1.0 + network.contention_penalty))


def _book_hops(network, stats, nics, payload_nb, table, busy):
    """Mirror the counters ``Wire.book`` and ``CollSim`` keep per hop,
    one per send and receive of ``table``."""
    nbytes = payload_nb + HEADER_BYTES
    sent = list(map(len, table.dests))
    hops = sum(sent)
    stats.sends += hops
    stats.bytes_sent += hops * payload_nb
    for nic, n_out, n_in in zip(nics, sent, map(len, table.srcs)):
        nic.bytes_sent += n_out * nbytes
        nic.bytes_received += n_in * nbytes
    network.stats.messages += hops
    network.stats.bytes += hops * nbytes
    network.stats.busy_time = busy


def _bcast_kernel(network, nics, eng, times, table, payload_nb, root,
                  stats) -> list[float]:
    """Binomial broadcast (``table``) in one pass over relative ranks.

    Each tx engine is used only by its owner (sequential blocking
    forwards) and each rx engine by exactly one send (from the parent),
    so hop times do not depend on the visiting order; relative ranks
    ascend because a parent's relative rank is below its child's.
    """
    n = len(nics)
    nbytes = payload_nb + HEADER_BYTES
    overhead, latency, wire, contended = _hop_terms(network, nics, nbytes)
    busy = network.stats.busy_time
    out = list(times)            # arrival, then deposit if later, then end
    dests = table.dests
    for rank in (*range(root, n), *range(root)):
        t = out[rank]
        tx = eng[rank]
        for child in dests[rank]:
            rx = eng[child]
            t_arrive = t_hold = t + overhead
            if tx[0] > t_hold:
                t_hold = tx[0]
            if rx[1] > t_hold:
                t_hold = rx[1]
            tx[0] = rx[1] = end_hold = t_hold + (
                contended if t_hold > t_arrive else wire)
            end = end_hold + latency
            busy += end - t
            t = end
            if end > out[child]:
                out[child] = end
        out[rank] = t
    if stats is not None:
        _book_hops(network, stats, nics, payload_nb, table, busy)
    return out


def _barrier_kernel(network, nics, eng, times, table,
                    stats) -> list[float]:
    """Dissemination barrier (``table``, whose round ``k`` is every
    rank's ``k``-th send and receive): by rounds where exact, else in
    heap order."""
    hop = _hop_terms(network, nics, HEADER_BYTES)
    busy = network.stats.busy_time
    out, busy = (_barrier_by_rounds(table, eng, times, hop, busy)
                 or _barrier_ordered(table, eng, times, hop, busy))
    if stats is not None:
        _book_hops(network, stats, nics, 0, table, busy)
    return out


def _barrier_by_rounds(table, eng, times, hop, busy):
    """``(completions, busy_time)`` computed round by round, or None.

    Every hop is costed as if its receive engine were free when the
    transmit engine is.  That holds iff, per destination, the hops sorted
    by start have pairwise-distinct starts (:class:`CollSim` then visits
    them in exactly that order) and none is granted its transmit engine
    before its predecessor's release.  Nothing is committed until then.
    """
    overhead, latency, wire, contended = hop
    dests, srcs = table.dests, table.srcs
    n = len(times)
    start = list(times)
    tx_free = [row[0] for row in eng]
    end = [0.0] * n
    inbound: list[list] = [[] for _ in range(n)]
    for k in range(len(dests[0])):
        for rank in range(n):
            begin = start[rank]
            t_arrive = t_tx = begin + overhead
            if tx_free[rank] > t_tx:
                t_tx = tx_free[rank]
            tx_free[rank] = end_hold = t_tx + (
                contended if t_tx > t_arrive else wire)
            end[rank] = done = end_hold + latency
            busy += done - begin
            inbound[dests[rank][k]].append((begin, t_tx, end_hold))
        start = [max(end[rank], end[src[k]])
                 for rank, src in enumerate(srcs)]
    rx_free = [row[1] for row in eng]
    for rank in range(n):
        last = None
        for begin, t_tx, end_hold in sorted(inbound[rank]):
            if rx_free[rank] > t_tx or begin == last:
                return None
            rx_free[rank] = end_hold
            last = begin
    for row, tx, rx in zip(eng, tx_free, rx_free):
        row[0], row[1] = tx, rx
    return start, busy


def _barrier_ordered(table, eng, times, hop, busy):
    """``(completions, busy_time)`` in :class:`CollSim`'s exact ``(start,
    cause, seq)`` heap order, for contended or tied receive engines: its
    barrier program line by line — arrival-ordered eager drains, the
    replay-event counter, the hop-class cause keys (see its heap comment).
    """
    overhead, latency, wire, contended = hop
    dests = table.dests
    n = len(times)
    rounds = len(dests[0])
    t_cur = list(times)                      # ends as the completions
    stage = [0] * n
    send_end: list = [None] * n
    send_exec = [0] * n
    cause: list = [None] * n
    deposits: list = [[None] * rounds for _ in range(n)]
    heap: list = []
    seq = events = 0
    arrivals = sorted(range(n), key=times.__getitem__)
    for arrived, entrant in enumerate(arrivals, 1):
        now = times[entrant]
        events += 1
        seq += 1
        cause[entrant] = (0, events, 1)
        heapq.heappush(heap, (now, cause[entrant], seq, entrant))
        while heap and (arrived == n or heap[0][0] <= now):
            begin, _cause, _seq, rank = heapq.heappop(heap)
            dst = dests[rank][stage[rank]]
            tx, rx = eng[rank], eng[dst]
            t_arrive = t_hold = begin + overhead
            if tx[0] > t_hold:
                t_hold = tx[0]
            if rx[1] > t_hold:
                t_hold = rx[1]
            tx[0] = rx[1] = end_hold = t_hold + (
                contended if t_hold > t_arrive else wire)
            end = end_hold + latency
            busy += end - begin
            events += 1
            send_exec[rank] = events
            send_end[rank] = end
            deposits[dst][stage[rank]] = (end, events)
            # isend style: the receiver's get fires before the sender's
            # request-completion event.
            for peer in (dst, rank):
                sent = send_end[peer]
                got = None if sent is None else deposits[peer][stage[peer]]
                if got is None:
                    continue
                if got[0] > t_cur[peer]:
                    cause[peer] = (0, got[1], 1)
                if sent >= max(t_cur[peer], got[0]):
                    cause[peer] = (1, send_exec[peer], 0)
                t_cur[peer] = nxt = max(sent, got[0])
                stage[peer] += 1
                send_end[peer] = None
                if stage[peer] < rounds:
                    seq += 1
                    heapq.heappush(heap, (nxt, cause[peer], seq, peer))
    return t_cur, busy
