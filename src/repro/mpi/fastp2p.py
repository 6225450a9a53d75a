"""Phantom point-to-point fast path: a network-level transfer replay.

Why
---
After PR 2's collective short-circuit, point-to-point traffic was the
remaining event-machinery hot spot: every ``Comm._send_raw`` walks the
full ``Network.transfer`` chain — software-overhead timeout, two NIC
resource grants, wire timeout, latency timeout, mailbox put — roughly
eight heap events per message.  None of that machinery carries
information: the transfer's completion time is a deterministic function
of its size, the NIC engine availability, and the backplane load.  This
module computes it with plain arithmetic and delivers the result through
one (usually shared) completion event per distinct completion time.

:class:`NetReplay` is the *network-level* replay shared by this fast
path and the collective fast path (:mod:`repro.mpi.fastcoll`): one
instance per :class:`~repro.cluster.network.Network`, created lazily via
:func:`net_replay`.  Sharing one instance is what makes the replay exact
across traffic classes — p2p flows, collective flows and (via the bridge
in ``Network.transfer``) any remaining generator-path flows all see the
same per-NIC engine occupancy (``Nic.fp_free``) and the same backplane
interval log.

Every flow passes through a deferred resolution machine that mirrors
the kernel's resource semantics: tx engines grant in request
(``t_arrive``) order, rx engines grant in *tx-grant* order (the kernel
requests rx only after tx is held — a tx-queued flow therefore loses
the rx race to a later-issued tx-free flow), and flows finalize in
global wire-start order so the backplane sample at each wire start sees
exactly the set of flows the event kernel would count
(``Network.transfer`` samples ``_active_flows`` once, at wire start).
Finalization never runs ahead of what is provably safe — the sweep
bound ``env.now + software_overhead`` (no future registration can reach
its wire before that), further clamped by announced-but-not-yet-started
generator-path transfers — and a single pump event wakes the machine
when the next wire start lies beyond the bound.  The common case (a
send whose engines are idle, nothing else pending) finalizes inline at
registration with no queues touched.  ``exact`` marks networks whose
backplane can actually be oversubscribed (``num_nodes × max NIC
bandwidth > backplane_bandwidth``): only there do the backplane sample
and the generator-transfer bridge change anything — on headroom
networks the demand can never exceed the backplane, so the same
machinery is trivially exact.

Equivalence contract
--------------------
Identical simulated completion times, payload values and
``CommStats``/``NetworkStats``/NIC counters to the generator path (see
``docs/phantom.md`` and ``tests/test_fastp2p_equivalence.py``).  The
replay mirrors ``Network.transfer``'s arithmetic operation-for-operation
(same float expressions, same sampling instants), including the
same-node shared-memory path, so shared-node machines
(``cpus_per_node > 1``) and tight backplanes are handled exactly rather
than declined.  The only undefined corner is the event kernel's
tie-breaking of *bit-identical* simultaneous requests, which is an
artifact of event sequence numbers, not physics (documented in
``docs/phantom.md``).
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Optional

from repro.mpi.datatypes import HEADER_BYTES
from repro.simulate import Event
from repro.simulate.engine import Batch


def net_replay(network) -> "NetReplay":
    """The (lazily created) replay instance bound to ``network``."""
    replay = network._replay
    if replay is None:
        replay = network._replay = NetReplay(network)
    return replay


class _Flow:
    """One in-flight replayed transfer (exact regime)."""

    __slots__ = ("src", "dst", "nb", "bw", "start", "t_arrive", "seq",
                 "g_tx", "record_stats", "on_complete")

    def __init__(self, src: int, dst: int, nb: int, bw: float,
                 start: float, t_arrive: float, seq: int,
                 record_stats: bool, on_complete: Callable[[float], None]):
        self.src = src
        self.dst = dst
        self.nb = nb
        self.bw = bw
        self.start = start
        self.t_arrive = t_arrive
        self.seq = seq
        self.g_tx = 0.0
        self.record_stats = record_stats
        self.on_complete = on_complete


class NetReplay:
    """Arithmetic mirror of ``Network.transfer`` for one network."""

    def __init__(self, network):
        self.net = network
        self.env = network.env
        nodes = network.nodes
        bw_max = max(n.nic.bandwidth for n in nodes) if nodes else 0.0
        #: True when concurrent flows could oversubscribe the backplane
        #: (each flow holds one tx engine, so at most ``len(nodes)`` run
        #: at once); the deferred machine is only needed then.
        self.exact = len(nodes) * bw_max > network.backplane_bandwidth
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
        self._act_real: list[float] = []     # end_hold heap, generator flows
        self._pending_real: dict[int, float] = {}  # token -> t_arrive
        self._real_token = 0
        self._unresolved = 0
        self._pump_at: Optional[float] = None
        self._sweeping = False
        self._notify: list = []        # after-sweep callbacks
        self._notify_ids: set = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def send_event(self, src: int, dst: int, payload_nb: int, start: float,
                   *, collect: Optional[list] = None) -> Event:
        """Register one transfer; returns the event firing at its
        completion (mailbox-deposit) time.

        The event is guaranteed to fire exactly once, at the same
        simulated instant the generator path's transfer would return.
        When the completion time is resolvable immediately it is also
        appended to ``collect``, letting generators chain sequential
        sends without yielding.
        """
        ev = Event(self.env)

        def resolve(end: float) -> None:
            if collect is not None:
                collect.append(end)
            self._group_member(ev, end)

        self.send_flow(src, dst, payload_nb, start, resolve)
        return ev

    def send_flow(self, src: int, dst: int, payload_nb: int, start: float,
                  on_complete: Callable[[float], None], *,
                  record_stats: bool = True) -> None:
        """Register one transfer; ``on_complete(end)`` fires when its
        completion time is known (inline whenever provably safe)."""
        net = self.net
        nbytes = payload_nb + HEADER_BYTES
        if src == dst:
            # Shared-memory path: no NIC engines, no backplane, no
            # software overhead — mirrors Network.transfer exactly.
            node = net.nodes[src]
            end = start + (net.memory_latency +
                           nbytes / node.memory_bandwidth)
            if record_stats:
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
                     start, t_arrive, self._seq, record_stats, on_complete)
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

    def _mirror_stats(self, src_nic, dst_nic, nbytes: int,
                      busy: float) -> None:
        src_nic.bytes_sent += nbytes
        dst_nic.bytes_received += nbytes
        stats = self.net.stats
        stats.messages += 1
        stats.bytes += nbytes
        stats.busy_time += busy

    # ------------------------------------------------------------------
    # Exact regime: the deferred resolution machine
    # ------------------------------------------------------------------
    def _sweep_bound(self) -> float:
        """Latest wire-start instant that is safe to finalize now.

        Any *future* registration reaches its wire no earlier than
        ``now + software_overhead``; an already-announced generator-path
        transfer no earlier than ``max(its t_arrive, now)``.
        """
        now = self.env.now
        bound = now + self.net.software_overhead
        for t in self._pending_real.values():
            t_eff = t if t > now else now
            if t_eff < bound:
                bound = t_eff
        return bound

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

    def _sweep(self, limit: Optional[float] = None) -> None:
        """Finalize every flow whose wire start is provably safe (and,
        with ``limit``, no later than it), in global wire-start order;
        arm a pump for the next one otherwise."""
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
                bound = self._sweep_bound()
                if limit is not None and limit < bound:
                    bound = limit
                if t_hold > bound:
                    now = self.env.now
                    if limit is None and \
                            t_hold > now + self.net.software_overhead:
                        self._arm_pump(t_hold)
                    # else: clamped by an announced generator-path
                    # transfer or an explicit limit; the transfer's wire
                    # start (or the follow-up full sweep) resumes us.
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
        act_real = self._act_real
        while act_fast and act_fast[0] <= t_hold:
            heapq.heappop(act_fast)
        while act_real and act_real[0] <= t_hold:
            heapq.heappop(act_real)
        wire = flow.nb * (1.0 / flow.bw + net.per_byte_overhead)
        if t_hold > flow.t_arrive:
            wire *= 1.0 + net.contention_penalty
        # Backplane sample at wire start, exactly as Network.transfer:
        # the flow counts itself on top of everything already on the wire.
        demand = (len(act_fast) + len(act_real) + 1) * flow.bw
        if demand > net.backplane_bandwidth:
            wire *= demand / net.backplane_bandwidth
        end_hold = t_hold + wire
        heapq.heappush(act_fast, end_hold)
        src_nic = net.nodes[flow.src].nic
        dst_nic = net.nodes[flow.dst].nic
        src_nic.fp_free[0] = end_hold
        dst_nic.fp_free[1] = end_hold
        end = end_hold + net.latency
        if flow.record_stats:
            self._mirror_stats(src_nic, dst_nic, flow.nb, end - flow.start)
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
    # Bridge for generator-path transfers (Network.transfer)
    # ------------------------------------------------------------------
    def real_announce(self) -> int:
        """A generator-path transfer entered the network; until its wire
        start, replayed finalization must not run past it."""
        self._real_token += 1
        self._pending_real[self._real_token] = (
            self.env.now + self.net.software_overhead)
        return self._real_token

    def real_started(self, token: int) -> int:
        """The announced transfer reached its wire start (``env.now``);
        returns the number of replayed flows active on the wire now.

        The catch-up sweep is clamped to ``now``: replayed flows with
        later wire starts must sample *after* this transfer's interval
        is recorded (``real_interval``), and must not be counted here —
        they are not on the wire yet.
        """
        self._pending_real.pop(token, None)
        if self._unresolved and not self._sweeping:
            self._sweep(limit=self.env.now)
        now = self.env.now
        act = self._act_fast
        while act and act[0] <= now:
            heapq.heappop(act)
        return len(act)

    def real_interval(self, end_hold: float) -> None:
        """Record the announced transfer's wire occupancy, then resume
        the replayed flows that were held behind it — their samples now
        see this transfer."""
        heapq.heappush(self._act_real, end_hold)
        if self._unresolved and not self._sweeping:
            self._sweep()

    def real_abandoned(self, token: int) -> None:
        """The announced transfer died before its wire start
        (failure injection) — unclamp the sweep."""
        if self._pending_real.pop(token, None) is not None:
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
