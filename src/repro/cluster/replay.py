"""The network replay: every transfer's timing, as arithmetic.

:class:`NetReplay` is the one model of NIC and backplane occupancy on a
live network.  Each :class:`~repro.cluster.network.Network` builds one
(``Network.replay``); ``Network.transfer`` registers every
point-to-point message on it and gets back the completion event that
``Comm`` attaches the mailbox deposit to, and the live
:class:`~repro.mpi.fastcoll.CollSim` calls take it as their sender.  So
point-to-point and collective flows all see the same per-NIC engine
occupancy (``Nic.fp_free``) and the same backplane interval log.

The model is a chain of resource grants computed with plain
arithmetic: tx engines grant in request (``t_arrive``) order, rx
engines grant in *tx-grant* order (rx is requested only once tx is
held — a tx-queued flow therefore loses the rx race to a later-issued
tx-free flow), and flows finalize in global wire-start order so the
backplane sample at each wire start counts exactly the flows on the
wire.  Finalization never runs ahead of what is provably safe — the
sweep bound ``env.now + software_overhead`` (no future registration can
reach its wire before that) — and a single pump record wakes the
machine when the next wire start lies beyond the bound.  The common
case (a send whose engines are idle, nothing else pending) finalizes
inline at registration with no queues touched, and simultaneous
completions share one packed ``Batch`` record.

Equivalence contract
--------------------
Identical simulated completion times and ``NetworkStats``/NIC counters
to the same model written as kernel events — ``Resource`` engines and
timeouts, kept in ``tests/oracles/p2p.py`` (``docs/phantom.md``,
``tests/test_fastp2p_equivalence.py``), including the same-node
shared-memory path and tight backplanes.  The only undefined corner is
the tie-breaking of *bit-identical* simultaneous requests, an artifact
of event sequence numbers, not physics (documented in
``docs/phantom.md``).
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Optional

from repro.simulate import Event
from repro.simulate.engine import Batch


class _Flow:
    """One in-flight replayed transfer (exact regime)."""

    __slots__ = ("src", "dst", "nb", "bw", "start", "t_arrive", "seq",
                 "g_tx", "on_complete")

    def __init__(self, src: int, dst: int, nb: int, bw: float,
                 start: float, t_arrive: float, seq: int,
                 on_complete: Callable[[float], None]):
        self.src = src
        self.dst = dst
        self.nb = nb
        self.bw = bw
        self.start = start
        self.t_arrive = t_arrive
        self.seq = seq
        self.g_tx = 0.0
        self.on_complete = on_complete


class NetReplay:
    """The transfer timing of one network, and the live
    :class:`~repro.mpi.fastcoll.CollSim` sender."""

    #: Completions may be deferred (they finalize in wire-start order), so
    #: a collective runs each send at its start time: same-instant sends
    #: then register in the order the kernel's causal chains produce.
    paced = True

    def __init__(self, network):
        self.net = network
        self.env = network.env
        self._seq = 0
        #: One packed pump record handler for the whole replay (see
        #: _arm_pump); registered once per network replay.
        self._h_pump = network.env.register_handler(self._on_pump)
        #: Completion-event grouping: absolute completion time ->
        #: packed Batch, so simultaneous completions share one record.
        self._groups: dict[float, Batch] = {}
        self._txq: dict[int, list] = {}      # node -> flows by (t_arrive, seq)
        self._tx_busy: dict[int, bool] = {}  # tx granted, not yet finalized
        self._rxq: dict[int, list] = {}      # node -> flows by (g_tx, seq)
        self._act_fast: list[float] = []     # end_hold heap, replayed flows
        self._unresolved = 0
        self._pump_at: Optional[float] = None
        self._sweeping = False
        self._notify: list = []        # after-sweep callbacks
        self._notify_ids: set = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def send_event(self, src: int, dst: int, nbytes: int) -> Event:
        """Register one transfer of ``nbytes`` wire bytes starting now
        (``Network.transfer``); returns the event firing at its
        completion time, exactly once."""
        ev = Event(self.env)
        self.send_flow(src, dst, nbytes, self.env.now,
                       lambda end: self._group_member(ev, end))
        return ev

    def send_flow(self, src: int, dst: int, nbytes: int, start: float,
                  on_complete: Callable[[float], None]) -> None:
        """Register one transfer of ``nbytes`` wire bytes starting at
        ``start``; ``on_complete(end)`` fires when its completion time
        is known (inline whenever provably safe).  This is the
        :class:`~repro.mpi.fastcoll.CollSim` sender interface."""
        net = self.net
        if src == dst:
            # Shared-memory path: no NIC engines, no backplane, no
            # software overhead.
            node = net.nodes[src]
            end = start + (net.memory_latency +
                           nbytes / node.memory_bandwidth)
            stats = net.stats
            stats.messages += 1
            stats.bytes += nbytes
            stats.busy_time += end - start
            on_complete(end)
            return
        t_arrive = start + net.software_overhead
        self._seq += 1
        flow = _Flow(src, dst, nbytes,
                     min(net.nodes[src].nic.bandwidth,
                         net.nodes[dst].nic.bandwidth),
                     start, t_arrive, self._seq, on_complete)
        if not self._unresolved:
            # Quick path (the common case: nothing else in flight) — the
            # flow is the global minimum candidate by construction, so
            # its wire start is final as soon as it is within the bound.
            src_nic = net.nodes[src].nic
            dst_nic = net.nodes[dst].nic
            t_hold = max(t_arrive, src_nic.fp_free[0], dst_nic.fp_free[1])
            if t_hold <= self._sweep_bound():
                self._finalize_exact(flow, t_hold)
                return
        insort(self._txq.setdefault(src, []),
               (t_arrive, flow.seq, flow))
        self._unresolved += 1
        if not self._sweeping:
            self._sweep()

    # ------------------------------------------------------------------
    # Exact regime: the deferred resolution machine
    # ------------------------------------------------------------------
    def _sweep_bound(self) -> float:
        """Latest wire-start instant that is safe to finalize now: any
        *future* registration reaches its wire no earlier than
        ``now + software_overhead``."""
        return self.env.now + self.net.software_overhead

    def _grant_tx(self) -> None:
        """Grant tx engines wherever the head flow's grant is computable
        (grant times are bookkeeping — rx queue position — so granting
        ahead of the clock is safe)."""
        txq = self._txq
        tx_busy = self._tx_busy
        nodes = self.net.nodes
        for node in [n for n in txq if n not in tx_busy]:
            queue = txq[node]
            _t_arrive, seq, flow = queue.pop(0)
            if not queue:
                del txq[node]
            flow.g_tx = max(flow.t_arrive, nodes[node].nic.fp_free[0])
            tx_busy[node] = True
            insort(self._rxq.setdefault(flow.dst, []),
                   (flow.g_tx, seq, flow))

    def _sweep(self) -> None:
        """Finalize every flow whose wire start is provably safe, in
        global wire-start order; arm a pump for the next one otherwise."""
        self._sweeping = True
        nodes = self.net.nodes
        rxq = self._rxq
        try:
            while self._unresolved:
                if self._txq:
                    self._grant_tx()
                best_key = None
                best_flow = None
                for node, queue in rxq.items():
                    g_tx, seq, head = queue[0]
                    t_hold = max(g_tx, nodes[node].nic.fp_free[1])
                    key = (t_hold, seq)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_flow = head
                if best_flow is None:
                    break  # everything left is waiting for a tx grant
                t_hold = best_key[0]
                if t_hold > self._sweep_bound():
                    self._arm_pump(t_hold)
                    break
                dst = best_flow.dst
                queue = rxq[dst]
                del queue[0]
                if not queue:
                    del rxq[dst]
                del self._tx_busy[best_flow.src]
                self._unresolved -= 1
                self._finalize_exact(best_flow, t_hold)
        finally:
            self._sweeping = False
        # Deliver batched progress outside the sweep, so one sweep's
        # worth of completions reaches each consumer as a single batch
        # (resolution order within a simulated instant matters) and
        # follow-up registrations can trigger fresh sweeps.
        while self._notify:
            fn = self._notify.pop(0)
            self._notify_ids.discard(id(fn))
            fn()

    def _finalize_exact(self, flow: _Flow, t_hold: float) -> None:
        """Sample the wire at ``t_hold`` and complete ``flow`` (queue
        bookkeeping, if any, is the caller's job)."""
        net = self.net
        act_fast = self._act_fast
        while act_fast and act_fast[0] <= t_hold:
            heapq.heappop(act_fast)
        wire = flow.nb * (1.0 / flow.bw + net.per_byte_overhead)
        if t_hold > flow.t_arrive:
            wire *= 1.0 + net.contention_penalty
        # Backplane sample at wire start: the flow counts itself on top
        # of everything already on the wire.
        demand = (len(act_fast) + 1) * flow.bw
        if demand > net.backplane_bandwidth:
            wire *= demand / net.backplane_bandwidth
        end_hold = t_hold + wire
        heapq.heappush(act_fast, end_hold)
        src_nic = net.nodes[flow.src].nic
        dst_nic = net.nodes[flow.dst].nic
        src_nic.fp_free[0] = end_hold
        dst_nic.fp_free[1] = end_hold
        end = end_hold + net.latency
        src_nic.bytes_sent += flow.nb
        dst_nic.bytes_received += flow.nb
        stats = net.stats
        stats.messages += 1
        stats.bytes += flow.nb
        stats.busy_time += end - flow.start
        flow.on_complete(end)

    def after_sweep(self, fn) -> None:
        """Run ``fn`` when the current sweep finishes (deduplicated);
        immediately when no sweep is active."""
        if not self._sweeping:
            fn()
            return
        if id(fn) not in self._notify_ids:
            self._notify_ids.add(id(fn))
            self._notify.append(fn)

    def _arm_pump(self, when: float) -> None:
        if self._pump_at is not None and self._pump_at <= when:
            return
        self._pump_at = when
        # One packed record — no Event object, no callback list.
        self.env.call_at(when, self._h_pump, None)

    def _on_pump(self, _arg) -> None:
        self._pump_at = None
        if self._unresolved and not self._sweeping:
            self._sweep()

    # ------------------------------------------------------------------
    # Completion-event grouping
    # ------------------------------------------------------------------
    def _group_member(self, ev: Event, when: float) -> None:
        batch = self._groups.get(when)
        if batch is None or batch.fired:
            if len(self._groups) > 64:
                self._groups = {t: b for t, b in self._groups.items()
                                if not b.fired}
            batch = self.env.batch_at(when)
            self._groups[when] = batch
        batch.add(ev)
