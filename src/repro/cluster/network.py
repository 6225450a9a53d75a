"""Point-to-point transfer model over the cluster interconnect.

A transfer between two nodes holds the sender's transmit engine and the
receiver's receive engine for the wire (serialization) time, then adds
propagation latency.  Same-node transfers go through shared memory at
memory bandwidth without touching the NIC.

The model is deliberately simple — latency + size/bandwidth + per-NIC
serialization — because that is exactly the level at which the paper's
redistribution algorithm argues: its circulant schedules are *node
contention free*, i.e. no two simultaneous messages share a sender or a
receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.cluster.node import Node
from repro.simulate import Environment


@dataclass
class NetworkStats:
    """Aggregate accounting for a :class:`Network`."""

    messages: int = 0
    bytes: int = 0
    busy_time: float = 0.0


class Network:
    """The cluster interconnect: a full-duplex switched Ethernet model."""

    def __init__(self, env: Environment, nodes: list[Node], *,
                 latency: float = 55e-6,
                 memory_latency: float = 1.2e-6,
                 per_byte_overhead: float = 0.0,
                 contention_penalty: float = 0.0,
                 software_overhead: float = 0.0,
                 backplane_bandwidth: float = float("inf")):
        self.env = env
        self.nodes = nodes
        #: One-way message latency over the wire (seconds).  55 us is a
        #: typical MPICH2-over-GigE small-message half round trip.
        self.latency = latency
        self.memory_latency = memory_latency
        self.per_byte_overhead = per_byte_overhead
        #: Endpoint-congestion model: a transfer that finds ``k`` other
        #: transfers queued or active on the NICs it needs pays
        #: ``(1 + penalty * k)`` times the wire time.  This stands in for
        #: the throughput loss TCP-over-GigE suffers under fan-in (frame
        #: interleaving, buffer pressure, retransmits) — the effect that
        #: makes contention-free redistribution schedules worth computing.
        self.contention_penalty = contention_penalty
        #: Per-message CPU cost of the messaging stack (sender + receiver
        #: software path).  Charged once per transfer in addition to wire
        #: latency; MPICH2-over-TCP era values are tens of microseconds.
        self.software_overhead = software_overhead
        #: Aggregate switch-fabric bandwidth shared by all inter-node
        #: flows.  When the sum of active flows' line rates exceeds it,
        #: every active flow slows proportionally — the oversubscription
        #: behaviour of commodity GigE switches, and the reason adding
        #: processors eventually stops helping communication-heavy
        #: kernels on the paper's testbed.
        self.backplane_bandwidth = backplane_bandwidth
        self._active_flows = 0
        self.stats = NetworkStats()
        #: Lazily created arithmetic replay shared by the phantom fast
        #: paths (see repro.mpi.fastp2p.net_replay).  None until the
        #: first fast-path operation touches this network, so worlds
        #: that never use the fast path run the pristine event path.
        self._replay = None

    # ------------------------------------------------------------------
    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended time for a ``nbytes`` message from src to dst node."""
        if src == dst:
            node = self.nodes[src]
            return self.memory_latency + nbytes / node.memory_bandwidth
        bw = min(self.nodes[src].nic.bandwidth, self.nodes[dst].nic.bandwidth)
        return (self.latency + self.software_overhead +
                nbytes * (1.0 / bw + self.per_byte_overhead))

    def transfer(self, src: int, dst: int, nbytes: int) -> Generator:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Yields until the message has fully arrived at the receiver.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = self.env.now
        if src == dst:
            node = self.nodes[src]
            yield self.env.sleep(self.memory_latency +
                                 nbytes / node.memory_bandwidth)
        else:
            src_nic = self.nodes[src].nic
            dst_nic = self.nodes[dst].nic
            bw = min(src_nic.bandwidth, dst_nic.bandwidth)
            wire_time = nbytes * (1.0 / bw + self.per_byte_overhead)
            # Acquire both engines; sender first (fixed order, and the two
            # resources are distinct objects so there is no deadlock
            # cycle: every transfer locks tx(src) then rx(dst) and a
            # transfer holding rx never waits on a tx).
            if self.software_overhead > 0:
                yield self.env.sleep(self.software_overhead)
            t_arrive = self.env.now
            tx_req = src_nic.tx.request()
            yield tx_req
            rx_req = dst_nic.rx.request()
            yield rx_req
            # Endpoint congestion: a transfer that had to queue behind
            # others pays degraded throughput once it gets the wire.
            if self.env.now > t_arrive:
                wire_time *= 1.0 + self.contention_penalty
            # Switch-fabric oversubscription: active flows sharing the
            # backplane degrade proportionally (sampled at start; exact
            # processor-sharing would need continuous re-timing).
            self._active_flows += 1
            demand = self._active_flows * bw
            if demand > self.backplane_bandwidth:
                wire_time *= demand / self.backplane_bandwidth
            try:
                yield self.env.sleep(wire_time)
            finally:
                self._active_flows -= 1
                src_nic.tx.release(tx_req)
                dst_nic.rx.release(rx_req)
            # Propagation latency after the wire is released: the NIC is
            # free to start the next frame while the last one is in flight.
            yield self.env.sleep(self.latency)
            src_nic.bytes_sent += nbytes
            dst_nic.bytes_received += nbytes
        end = self.env.now
        self.stats.messages += 1
        self.stats.bytes += nbytes
        self.stats.busy_time += end - start
