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
the shared network-level replay (:mod:`repro.mpi.fastp2p`), which models
the full transfer cost chain — software overhead, per-NIC FIFO
serialization with the endpoint contention penalty, wire time,
propagation latency, the same-node shared-memory path, and exact
backplane flow-sharing — and persists NIC availability across calls via
``Nic.fp_free`` (``[tx_free, rx_free]``), so fast collectives, fast
point-to-point traffic and each other's flows all see one consistent
wire.  Communicators with shared nodes (``cpus_per_node > 1``) and
machines with oversubscribable backplanes therefore ride the fast path
too; only real payloads and traced networks fall back to the generator
path (trace records are produced by real transfers).

On exact-backplane networks a send's completion may not be computable at
registration (a flow's wire time depends on what is on the wire when it
starts); :class:`CollSim` therefore consumes completions through
callbacks, which the replay fires inline whenever it is provably safe
and defers through its pump otherwise.

Two delivery mechanisms:

* **Rendezvous** (:class:`LiveCall`): barrier/reduce/gather/allgather/
  alltoall.  Eligibility is rank-locally decidable (payload must be
  :class:`Phantom` — type-symmetric SPMD usage is the same contract real
  MPI puts on datatypes).  Ranks register their arrival; completions are
  computed progressively (a reduce leaf resolves at its own send, the
  root when the whole tree is in) and scheduled via ``schedule_many``.
* **Token** (:class:`FastBcastToken`): broadcast.  Only the root knows
  whether the payload is phantom, so the decision travels *in-band*: the
  root deposits a token into its tree children's mailboxes at the exact
  deposit times the generator path would produce; receivers recognize
  the token, forward it arithmetically and skip the generator sends.  A
  slow (real-payload) broadcast is indistinguishable to receivers until
  the payload arrives, exactly like real MPI.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Optional

from repro.mpi.datatypes import HEADER_BYTES, payload_nbytes
from repro.mpi.fastp2p import net_replay
from repro.simulate import Environment, Event


class FastBcastToken:
    """In-band marker for a fast-path broadcast (see module docstring)."""

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int):
        self.value = value
        self.nbytes = nbytes


# ---------------------------------------------------------------------------
# Transfer-cost mirror
# ---------------------------------------------------------------------------

class Wire:
    """Arithmetic mirror of ``Network.transfer`` on a detached, quiet
    network (the closed-form cost tables).

    ``engines`` maps a node index to a mutable ``[tx_free, rx_free]``
    pair of scratch state — a hypothetical replay, never live traffic;
    live sends go through the shared :class:`~repro.mpi.fastp2p.
    NetReplay` instead.  Callers must feed sends in nondecreasing start
    order — per-NIC FIFO then matches the event kernel's grant order.
    Same-node sends take the shared-memory path, so shared-node grids
    replay exactly too.
    """

    __slots__ = ("network", "nodes", "nics", "engines", "record_stats")

    def __init__(self, network, nodes: list[int], *,
                 engines: Optional[dict] = None, record_stats: bool = True):
        self.network = network
        self.nodes = nodes                    # node index per comm rank
        self.nics = [network.nodes[n].nic for n in nodes]
        self.engines = engines if engines is not None else {}
        self.record_stats = record_stats

    def send(self, src: int, dst: int, payload_nb: int, start: float) -> float:
        """Completion (= mailbox deposit) time of one ``_send_raw``."""
        net = self.network
        nbytes = payload_nb + HEADER_BYTES
        src_node = self.nodes[src]
        dst_node = self.nodes[dst]
        if src_node == dst_node:
            end = start + (net.memory_latency +
                           nbytes / net.nodes[src_node].memory_bandwidth)
            if self.record_stats:
                net.stats.messages += 1
                net.stats.bytes += nbytes
                net.stats.busy_time += end - start
            return end
        t_arrive = start + net.software_overhead
        src_eng = self.engines.setdefault(src_node, [0.0, 0.0])
        dst_eng = self.engines.setdefault(dst_node, [0.0, 0.0])
        t_tx = max(t_arrive, src_eng[0])
        t_hold = max(t_tx, dst_eng[1])
        bw = min(self.nics[src].bandwidth, self.nics[dst].bandwidth)
        wire = nbytes * (1.0 / bw + net.per_byte_overhead)
        if t_hold > t_arrive:
            wire *= 1.0 + net.contention_penalty
        end_hold = t_hold + wire
        src_eng[0] = end_hold
        dst_eng[1] = end_hold
        end = end_hold + net.latency
        if self.record_stats:
            self.nics[src].bytes_sent += nbytes
            self.nics[dst].bytes_received += nbytes
            net.stats.messages += 1
            net.stats.bytes += nbytes
            net.stats.busy_time += end - start
        return end


class DetachedSender:
    """CollSim sender over a scratch :class:`Wire` (always synchronous)."""

    __slots__ = ("wire",)

    def __init__(self, wire: Wire):
        self.wire = wire

    def send(self, src: int, dst: int, payload_nb: int, start: float,
             on_complete: Callable[[float], None]) -> None:
        on_complete(self.wire.send(src, dst, payload_nb, start))

    def defer(self, fn: Callable[[], None]) -> None:
        fn()


class LiveSender:
    """CollSim sender routing through the shared network replay.

    Completions fire inline whenever the replay can prove the wire-start
    sample safe (always, on non-oversubscribable backplanes) and are
    deferred through the replay's pump otherwise.
    """

    __slots__ = ("replay", "nodes")

    def __init__(self, replay, nodes: list[int]):
        self.replay = replay
        self.nodes = nodes

    #: Live completions may always be deferred (the replay finalizes in
    #: wire-start order): the collective must execute sends at their
    #: start times, so same-instant sends from different completions
    #: register in heap order — the order the kernel's causal chains
    #: would produce.
    paced = True

    def send(self, src: int, dst: int, payload_nb: int, start: float,
             on_complete: Callable[[float], None]) -> None:
        self.replay.send_flow(self.nodes[src], self.nodes[dst],
                              payload_nb, start, on_complete)

    def defer(self, fn: Callable[[], None]) -> None:
        """Deliver progress once the replay's current sweep is done, so
        all completions of one simulated instant arrive as one batch."""
        self.replay.after_sweep(fn)


def p2p_time(network, src_node: int, dst_node: int,
             payload_nb: int) -> float:
    """Uncontended cross-node ``_send_raw`` duration (call to deposit):
    the network's own uncontended transfer time plus the header."""
    return network.transfer_time(src_node, dst_node,
                                 payload_nb + HEADER_BYTES)


# ---------------------------------------------------------------------------
# Binomial-tree structure (mirrors Comm.bcast's masks exactly)
# ---------------------------------------------------------------------------

def bcast_parent(rank: int, root: int, size: int) -> int:
    """The rank this rank receives from in a binomial broadcast."""
    relrank = (rank - root) % size
    mask = 1
    while not relrank & mask:
        mask <<= 1
    return ((relrank - mask) + root) % size


def bcast_children(rank: int, root: int, size: int) -> deque:
    """The ranks this rank forwards to, in send order."""
    relrank = (rank - root) % size
    if relrank == 0:
        mask = 1
        while mask < size:
            mask <<= 1
    else:
        mask = 1
        while not relrank & mask:
            mask <<= 1
    mask >>= 1
    out: deque = deque()
    while mask > 0:
        if relrank + mask < size:
            out.append((relrank + mask + root) % size)
        mask >>= 1
    return out


# ---------------------------------------------------------------------------
# Progressive collective replay
# ---------------------------------------------------------------------------

class CollSim:
    """Pure-arithmetic replay of one collective call.

    Ranks are fed via :meth:`arrive`; :meth:`drain` executes pending
    sends whose start time is due.  Wire times come from ``sender``
    (detached scratch wire or the live network replay) through
    callbacks; newly resolved ``(rank, completion_time, value)`` triples
    accumulate until :meth:`take_resolved`.  When a callback fires
    outside a drain (a deferred exact-backplane completion),
    ``on_progress`` tells the owner to drain and deliver.  No simulation
    objects are touched — the caller decides how completions become
    events.
    """

    def __init__(self, kind: str, size: int, sender, *,
                 root: int = 0, op: Optional[Callable] = None,
                 stats=None):
        self.kind = kind
        self.size = size
        self.sender = sender
        self.root = root
        self.op = op
        self.stats = stats                  # CommStats to mirror, or None
        self.on_progress: Optional[Callable[[], None]] = None
        self._resolved: list = []
        self._draining = False
        #: Paced senders defer completions, so future-start sends must
        #: wait for their start time (see LiveSender.paced); synchronous
        #: senders let drain cascade everything once all ranks are in.
        self.paced = bool(getattr(sender, "paced", False))
        self.arrived = [False] * size
        self.n_arrived = 0
        self.payloads: list[Any] = [None] * size
        self.t_cur = [0.0] * size
        # Heap entries are (start, cause, seq, rank): ``cause`` is a
        # ``(hop_class, exec, sub)`` key describing the event that
        # unblocked the send.  Equal-start sends contending for one NIC
        # engine are then granted in the same order the event kernel's
        # causal chains would produce: at a tied instant the kernel
        # schedules next-send software timeouts in hop order — first
        # ranks resumed one event after a transfer end (a blocking
        # send's own mailbox put, sub 0, then a receiver's mailbox get,
        # sub 1, both in transfer-end order ``exec``), then ranks
        # resumed two events after (an isend's process-completion event,
        # hop class 1).  This matters once ranks share NICs
        # (cpus_per_node > 1): different ranks' simultaneous sends then
        # contend for one engine.
        self.heap: list[tuple[float, tuple, int, int]] = []
        self._seq = 0
        self._exec = 0                       # monotone replay-event index
        self.cause: list[tuple] = [(0, 0, 1)] * size  # unblocking event
        self.dep: dict[tuple[int, int], deque] = {}
        self.resolved_count = 0
        # Pending-send descriptors (one outstanding send per rank).
        self.pend_dst = [0] * size
        self.pend_value: list[Any] = [None] * size
        self.send_end: list[Optional[float]] = [None] * size
        self.send_exec = [0] * size          # replay index of last send
        if kind == "barrier":
            self.rounds = max(1, math.ceil(math.log2(size)))
            self.stage = [0] * size
        elif kind == "reduce":
            self.mask = [1] * size
            self.result: list[Any] = [None] * size
        elif kind == "gather":
            self.items: list[Any] = [None] * size
            self.pool: deque = deque()      # (time, value, src) FIFO
            self.got = 0
        elif kind in ("allgather", "alltoall"):
            self.lists: list[Any] = [None] * size
            self.stage = [0] * size
        elif kind == "bcast":
            self.value: Any = None
            self.children: list[Optional[deque]] = [None] * size
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown collective kind {kind!r}")

    # -- plumbing ----------------------------------------------------------
    def _push(self, start: float, rank: int) -> None:
        self._seq += 1
        heapq.heappush(self.heap,
                       (start, self.cause[rank], self._seq, rank))

    def _deposit(self, src: int, dst: int, when: float, value: Any,
                 exec_idx: int) -> None:
        if self.kind == "gather":
            # Root receives with ANY_SOURCE: mailbox order is deposit
            # order, which is execution order here (chronological).
            self.pool.append((when, value, src, exec_idx))
        else:
            self.dep.setdefault((src, dst), deque()).append(
                (when, value, exec_idx))
        if self.arrived[dst]:
            self._advance(dst)

    def _take(self, rank: int, src: int):
        """Pop the next deposit from ``src`` and update ``rank``'s
        unblocking cause if the receive actually waited for it."""
        q = self.dep.get((src, rank))
        if not q:
            return None
        got = q.popleft()
        if got[0] > self.t_cur[rank]:
            self.cause[rank] = (0, got[2], 1)
        return got

    def _start_send(self, rank: int, dst: int, value: Any,
                    start: float) -> None:
        self.pend_dst[rank] = dst
        self.pend_value[rank] = value
        self._push(start, rank)

    @property
    def finished(self) -> bool:
        return self.resolved_count == self.size

    def next_start(self) -> Optional[float]:
        return self.heap[0][0] if self.heap else None

    # -- driving -----------------------------------------------------------
    def arrive(self, rank: int, now: float, payload: Any) -> list:
        self.arrived[rank] = True
        self.n_arrived += 1
        self.payloads[rank] = payload
        self.t_cur[rank] = now
        self._exec += 1
        self.cause[rank] = (0, self._exec, 1)
        self._seed(rank)
        self.drain(now)
        return self.take_resolved()

    def drain(self, now: float) -> None:
        """Execute due sends; with all ranks in, execute everything."""
        self._draining = True
        try:
            force = not self.paced and self.n_arrived == self.size
            while self.heap and (force or self.heap[0][0] <= now):
                start, _cause, _seq, rank = heapq.heappop(self.heap)
                dst = self.pend_dst[rank]
                value = self.pend_value[rank]
                self.sender.send(rank, dst, payload_nbytes(value), start,
                                 self._wire_done(rank, dst, value))
        finally:
            self._draining = False

    def take_resolved(self) -> list:
        """Newly resolved ``(rank, when, value)`` triples since last call."""
        out = self._resolved
        self._resolved = []
        return out

    def _wire_done(self, rank: int, dst: int,
                   value: Any) -> Callable[[float], None]:
        """Completion continuation of the send just handed to the sender.

        One completion can unblock both endpoints at the same instant;
        the kernel's resume order then depends on the send mode.  A
        *blocking* sender resumes at its own mailbox-put fire, before
        the receiver's get (scheduled right after the put) — sender
        first.  An *isend* sender resumes only at its request process'
        completion event, scheduled during the put fire — so the
        receiver's get fires in between, receiver first.
        """
        isend_style = self.kind in ("barrier", "allgather", "alltoall")

        def done(end: float) -> None:
            if self.stats is not None:
                self.stats.sends += 1
                self.stats.bytes_sent += payload_nbytes(value)
            self._exec += 1
            self.send_exec[rank] = self._exec
            self.send_end[rank] = end
            if isend_style:
                self._deposit(rank, dst, end, value, self._exec)
                self._sent(rank, end)
            else:
                self._sent(rank, end)
                self._deposit(rank, dst, end, value, self._exec)
            if not self._draining and self.on_progress is not None:
                self.sender.defer(self.on_progress)
        return done

    def _resolve(self, rank: int, when: float, value: Any) -> None:
        # The cause key records what unblocked this rank — completions
        # sharing one simulated instant must be delivered in the order
        # the kernel's causal chains would resume the ranks (see the
        # heap-entry comment above), or the ranks enter their *next*
        # operation in a different order.
        self.resolved_count += 1
        self._resolved.append((rank, when, value, self.cause[rank]))

    # -- per-algorithm programs -------------------------------------------
    def _seed(self, rank: int) -> None:
        kind = self.kind
        if kind == "barrier":
            dst = (rank + 1) % self.size
            self._start_send(rank, dst, None, self.t_cur[rank])
        elif kind == "reduce":
            self.result[rank] = self.payloads[rank]
            self._advance(rank)
        elif kind == "gather":
            if rank == self.root:
                self.items[self.root] = self.payloads[rank]
                self._advance(rank)
            else:
                self._start_send(rank, self.root, self.payloads[rank],
                                 self.t_cur[rank])
        elif kind == "allgather":
            items = [None] * self.size
            items[rank] = self.payloads[rank]
            self.lists[rank] = items
            self._start_send(rank, (rank + 1) % self.size,
                             items[rank], self.t_cur[rank])
        elif kind == "alltoall":
            received = [None] * self.size
            received[rank] = self.payloads[rank][rank]
            self.lists[rank] = received
            self.stage[rank] = 1
            dest = (rank + 1) % self.size
            self._start_send(rank, dest, self.payloads[rank][dest],
                             self.t_cur[rank])
        elif kind == "bcast":
            if rank == self.root:
                self.value = self.payloads[rank]
                self.children[rank] = bcast_children(rank, self.root,
                                                     self.size)
                self._bcast_forward(rank, self.t_cur[rank])
            else:
                self._advance(rank)

    def _sent(self, rank: int, end: float) -> None:
        """A rank's outstanding send completed at ``end``."""
        kind = self.kind
        if kind in ("reduce", "gather"):
            # Blocking leaf/child send: the rank is done once it returns
            # (one hop — it resumes at its own mailbox put).
            self.cause[rank] = (0, self.send_exec[rank], 0)
            self._resolve(rank, end, None)
        elif kind in ("barrier", "allgather", "alltoall"):
            self._advance(rank)
        elif kind == "bcast":
            # The next (sequential, blocking) send is unblocked by this
            # one's completion (one hop: the rank resumes at its own
            # mailbox put and schedules the next transfer inline).
            self.cause[rank] = (0, self.send_exec[rank], 0)
            self.t_cur[rank] = end
            self._bcast_forward(rank, end)

    def _advance(self, rank: int) -> None:
        kind = self.kind
        size = self.size
        if kind == "barrier":
            k = self.stage[rank]
            if self.send_end[rank] is None:
                return
            src = (rank - (1 << k)) % size
            got = self._take(rank, src)
            if got is None:
                return
            if self.send_end[rank] >= max(self.t_cur[rank], got[0]):
                # isend completion: two hops (put fire, process event).
                # >=: even when the deposit lands at the same instant,
                # the rank still waits for its request's process event.
                self.cause[rank] = (1, self.send_exec[rank], 0)
            nxt = max(self.send_end[rank], got[0])
            self.t_cur[rank] = nxt
            self.stage[rank] = k + 1
            self.send_end[rank] = None
            if k + 1 == self.rounds:
                self._resolve(rank, nxt, None)
                return
            self._start_send(rank, (rank + (1 << (k + 1))) % size,
                             None, nxt)
        elif kind == "reduce":
            relrank = (rank - self.root) % size
            mask = self.mask[rank]
            while mask < size:
                if relrank & mask == 0:
                    peer = relrank | mask
                    if peer < size:
                        src = (peer + self.root) % size
                        got = self._take(rank, src)
                        if got is None:
                            self.mask[rank] = mask
                            return
                        if got[0] <= self.t_cur[rank]:
                            # Already deposited: the immediate mailbox
                            # get still costs the kernel one event (hop).
                            c = self.cause[rank]
                            self.cause[rank] = (c[0] + 1, c[1], c[2])
                        self.t_cur[rank] = max(self.t_cur[rank], got[0])
                        self.result[rank] = self.op(got[1],
                                                    self.result[rank])
                else:
                    dest = ((relrank & ~mask) + self.root) % size
                    self.mask[rank] = mask << 1
                    self._start_send(rank, dest, self.result[rank],
                                     self.t_cur[rank])
                    return
                mask <<= 1
            self.mask[rank] = mask
            # relrank 0 (the root) is the only rank that exits the loop.
            self._resolve(rank, self.t_cur[rank], self.result[rank])
        elif kind == "gather":
            while self.got < size - 1 and self.pool:
                when, value, src, exec_idx = self.pool.popleft()
                if when > self.t_cur[rank]:
                    self.cause[rank] = (0, exec_idx, 1)
                self.t_cur[rank] = max(self.t_cur[rank], when)
                self.items[src] = value
                self.got += 1
            if self.got == size - 1:
                self._resolve(rank, self.t_cur[rank], self.items)
        elif kind == "allgather":
            s = self.stage[rank]
            if self.send_end[rank] is None:
                return
            got = self._take(rank, (rank - 1) % size)
            if got is None:
                return
            if self.send_end[rank] >= max(self.t_cur[rank], got[0]):
                # isend completion: two hops (put fire, process event).
                # >=: even when the deposit lands at the same instant,
                # the rank still waits for its request's process event.
                self.cause[rank] = (1, self.send_exec[rank], 0)
            items = self.lists[rank]
            items[(rank - s - 1) % size] = got[1]
            nxt = max(self.send_end[rank], got[0])
            self.t_cur[rank] = nxt
            self.stage[rank] = s + 1
            self.send_end[rank] = None
            if s + 1 == size - 1:
                self._resolve(rank, nxt, items)
                return
            self._start_send(rank, (rank + 1) % size,
                             items[(rank - s - 1) % size], nxt)
        elif kind == "alltoall":
            s = self.stage[rank]
            if self.send_end[rank] is None:
                return
            source = (rank - s) % size
            got = self._take(rank, source)
            if got is None:
                return
            if self.send_end[rank] >= max(self.t_cur[rank], got[0]):
                # isend completion: two hops (put fire, process event).
                # >=: even when the deposit lands at the same instant,
                # the rank still waits for its request's process event.
                self.cause[rank] = (1, self.send_exec[rank], 0)
            self.lists[rank][source] = got[1]
            nxt = max(self.send_end[rank], got[0])
            self.t_cur[rank] = nxt
            self.stage[rank] = s + 1
            self.send_end[rank] = None
            if s + 1 == size:
                self._resolve(rank, nxt, self.lists[rank])
                return
            dest = (rank + s + 1) % size
            self._start_send(rank, dest,
                             self.payloads[rank][dest], nxt)
        elif kind == "bcast":
            if self.children[rank] is not None:
                return  # already received; spurious wakeup
            src = bcast_parent(rank, self.root, size)
            got = self._take(rank, src)
            if got is None:
                return
            self.t_cur[rank] = max(self.t_cur[rank], got[0])
            self.value = got[1]
            self.children[rank] = bcast_children(rank, self.root, size)
            self._bcast_forward(rank, self.t_cur[rank])

    def _bcast_forward(self, rank: int, t: float) -> None:
        """Queue the next binomial-tree send of ``rank`` (or finish)."""
        pending = self.children[rank]
        if not pending:
            self._resolve(rank, t, self.value)
            return
        self._start_send(rank, pending.popleft(), self.value, t)


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

    __slots__ = ("shared", "nodes", "exclusive", "quiet")

    def __init__(self, shared, nodes: list[int], exclusive: bool,
                 quiet: bool):
        self.shared = shared
        self.nodes = nodes
        self.exclusive = exclusive
        self.quiet = quiet

    def sender(self) -> LiveSender:
        network = self.shared.world.machine.network
        return LiveSender(net_replay(network), self.nodes)

    def live_call(self, kind: str, tag: int, *, root: int = 0,
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
    path out anymore.  The per-call dynamic conditions (flag, tracing,
    payload types) are checked by the callers in :mod:`repro.mpi.comm`.
    """
    machine = shared.world.machine
    spec = getattr(machine, "spec", None)
    nodes = [machine.node_of(p) for p in shared.processors]
    net = machine.network
    bw_max = max(machine.nodes[n].nic.bandwidth for n in nodes)
    exclusive = (spec is not None and spec.cpus_per_node == 1
                 and len(set(nodes)) == len(nodes))
    quiet = (exclusive
             and len(nodes) * bw_max <= net.backplane_bandwidth)
    return FastCollState(shared, nodes, exclusive, quiet)


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
        self.sim = CollSim(kind, shared.size, state.sender(), root=root,
                           op=op, stats=shared.stats)
        self.sim.on_progress = self._on_progress
        self.events: dict[int, Event] = {}
        self._pump_at: Optional[float] = None
        #: One table entry shared by every LiveCall on this Environment
        #: (registered unbound, instance passed as the record argument).
        self._h_pump = self.env.handler_id(LiveCall._on_pump)

    def join(self, rank: int, payload: Any) -> Event:
        ev = Event(self.env)
        self.events[rank] = ev
        now = self.env.now
        resolved = self.sim.arrive(rank, now, payload)
        self._finish_drain(now, resolved)
        return ev

    def _on_progress(self) -> None:
        """A deferred wire completion advanced the replay off-drain."""
        now = self.env.now
        self.sim.drain(now)
        self._finish_drain(now, self.sim.take_resolved())

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
        nxt = self.sim.next_start()
        if nxt is not None and (self._pump_at is None
                                or nxt < self._pump_at):
            self._pump_at = nxt
            # One packed record — no Event object, no callback list.
            self.env.call_at(max(now, nxt), self._h_pump, self)

    def _on_pump(self) -> None:
        self._pump_at = None
        if self.sim.finished:
            return
        now = self.env.now
        self.sim.drain(now)
        self._finish_drain(now, self.sim.take_resolved())


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
            if kind == "barrier":
                return _barrier_kernel(network, nics, eng, times, stats)
            return _bcast_kernel(network, nics, eng, times,
                                 payload_nbytes(payloads[root]), root, stats)
    return collsim_call(network, nodes, kind, times, payloads, root=root,
                        op=op, engines=engines, stats=stats)


def collsim_call(network, nodes, kind, times, payloads, *, root=0, op=None,
                 engines=None, stats=None) -> list[float]:
    """:func:`detached_call` through :class:`CollSim` over a scratch
    :class:`Wire` — the general path, and the reference the kernels are
    tested against."""
    wire = Wire(network, nodes, engines=engines,
                record_stats=stats is not None)
    sim = CollSim(kind, len(nodes), DetachedSender(wire), root=root,
                  op=op, stats=stats)
    out = list(times)
    # The last arrival's drain runs the heap dry (synchronous sender).
    for rank in sorted(range(len(nodes)), key=times.__getitem__):
        for member, when, _value, _cause in sim.arrive(rank, times[rank],
                                                       payloads[rank]):
            out[member] = when
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


# The kernels evaluate, hop for hop, the float expressions of ``Wire.send``'s
# cross-node branch on flat per-member lists (``eng[i]``: member ``i``'s
# ``[tx_free, rx_free]`` row); only the visiting order of *independent*
# hops differs, hence the association of the ``busy_time`` sum.

def _hop_terms(network, nics, nbytes: int) -> tuple:
    """``(software overhead, latency, wire time, contended wire time)``."""
    wire = nbytes * (1.0 / nics[0].bandwidth + network.per_byte_overhead)
    return (network.software_overhead, network.latency, wire,
            wire * (1.0 + network.contention_penalty))


def _book_hops(network, stats, nics, payload_nb, sent, received, busy):
    """Mirror the counters ``Wire.send`` and ``CollSim`` keep per hop."""
    nbytes = payload_nb + HEADER_BYTES
    hops = sum(sent)
    stats.sends += hops
    stats.bytes_sent += hops * payload_nb
    for nic, n_out, n_in in zip(nics, sent, received):
        nic.bytes_sent += n_out * nbytes
        nic.bytes_received += n_in * nbytes
    network.stats.messages += hops
    network.stats.bytes += hops * nbytes
    network.stats.busy_time = busy


def _bcast_kernel(network, nics, eng, times, payload_nb, root,
                  stats) -> list[float]:
    """Binomial broadcast in one pass over relative ranks.

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
    sent = [0] * n
    for rel in range(n):
        rank = (rel + root) % n
        t = out[rank]
        tx = eng[rank]
        # Children: rel + the powers of two below its lowest set bit.
        mask = (rel & -rel if rel else 1 << (n - 1).bit_length()) >> 1
        while mask:
            if rel + mask < n:
                child = (rel + mask + root) % n
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
                sent[rank] += 1
            mask >>= 1
        out[rank] = t
    if stats is not None:
        _book_hops(network, stats, nics, payload_nb, sent,
                   [rank != root for rank in range(n)], busy)
    return out


def _barrier_kernel(network, nics, eng, times, stats) -> list[float]:
    """Dissemination barrier: by rounds where exact, else in heap order."""
    n = len(nics)
    rounds = math.ceil(math.log2(n))         # n >= 2, as in CollSim
    hop = _hop_terms(network, nics, HEADER_BYTES)
    busy = network.stats.busy_time
    out, busy = (_barrier_by_rounds(n, rounds, eng, times, hop, busy)
                 or _barrier_ordered(n, rounds, eng, times, hop, busy))
    if stats is not None:
        _book_hops(network, stats, nics, 0, [rounds] * n, [rounds] * n,
                   busy)
    return out


def _barrier_by_rounds(n, rounds, eng, times, hop, busy):
    """``(completions, busy_time)`` computed round by round, or None.

    Every hop is costed as if its receive engine were free when the
    transmit engine is.  That holds iff, per destination, the hops sorted
    by start have pairwise-distinct starts (:class:`CollSim` then visits
    them in exactly that order) and none is granted its transmit engine
    before its predecessor's release.  Nothing is committed until then.
    """
    overhead, latency, wire, contended = hop
    start = list(times)
    tx_free = [row[0] for row in eng]
    end = [0.0] * n
    inbound: list[list] = [[] for _ in range(n)]
    for k in range(rounds):
        dist = 1 << k
        for rank in range(n):
            begin = start[rank]
            t_arrive = t_tx = begin + overhead
            if tx_free[rank] > t_tx:
                t_tx = tx_free[rank]
            tx_free[rank] = end_hold = t_tx + (
                contended if t_tx > t_arrive else wire)
            end[rank] = done = end_hold + latency
            busy += done - begin
            inbound[(rank + dist) % n].append((begin, t_tx, end_hold))
        start = [max(end[rank], end[rank - dist]) for rank in range(n)]
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


def _barrier_ordered(n, rounds, eng, times, hop, busy):
    """``(completions, busy_time)`` in :class:`CollSim`'s exact ``(start,
    cause, seq)`` heap order, for contended or tied receive engines: its
    barrier program line by line — arrival-ordered eager drains, the
    replay-event counter, the hop-class cause keys (see its heap comment).
    """
    overhead, latency, wire, contended = hop
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
            dst = (rank + (1 << stage[rank])) % n
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
