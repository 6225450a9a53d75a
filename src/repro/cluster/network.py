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

:meth:`Network.transfer` is the one entry point for a message.  The
arithmetic lives in the network's replay (:mod:`repro.cluster.replay`),
which keeps each NIC's engine availability in ``Nic.fp_free`` and
resolves a transfer with plain arithmetic; ``tests/oracles/p2p.py``
keeps the same model as a chain of kernel events (resource grants and
timeouts), the reference the replay is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import Node
from repro.cluster.replay import NetReplay
from repro.simulate import Environment, Event


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
        #: Endpoint-congestion model: a transfer that has to wait for a
        #: NIC engine it needs pays ``(1 + penalty)`` times the wire
        #: time.  This stands in for the throughput loss TCP-over-GigE
        #: suffers under fan-in (frame interleaving, buffer pressure,
        #: retransmits) — the effect that makes contention-free
        #: redistribution schedules worth computing.
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
        self.stats = NetworkStats()
        #: The network replay that times every transfer.
        self.replay = NetReplay(self)

    # ------------------------------------------------------------------
    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended time for a ``nbytes`` message from src to dst node."""
        if src == dst:
            node = self.nodes[src]
            return self.memory_latency + nbytes / node.memory_bandwidth
        bw = min(self.nodes[src].nic.bandwidth, self.nodes[dst].nic.bandwidth)
        return (self.latency + self.software_overhead +
                nbytes * (1.0 / bw + self.per_byte_overhead))

    def transfer(self, src: int, dst: int, nbytes: int) -> Event:
        """Start moving ``nbytes`` from node ``src`` to node ``dst`` now.

        Returns the event that fires when the message has fully arrived
        at the receiver.  The network replay books the transfer: NIC
        engines, backplane share, counters.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.replay.send_event(src, dst, nbytes)
