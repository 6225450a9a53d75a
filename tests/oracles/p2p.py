"""Point-to-point as a chain of kernel events: the replay's reference.

``Network.transfer`` times every message with the network replay's
arithmetic (``repro.cluster.replay``).  This module keeps the same cost
model written the other way — capacity-1 ``Resource`` engines per NIC,
timeouts for software overhead, wire and latency, a flow counter for
the backplane — and the generator send path that ran over it: the
transfer, then a mailbox ``Store.put``, with ``isend``/``irecv`` driven
by processes.  Each piece of kernel machinery stands for one rule of
the model, so a replay that mistimes a grant shows up as a
disagreement.

:func:`install` routes ``Comm``'s point-to-point through it in worlds
built with ``fastpath=False``; ``tests/conftest.py``'s ``p2p_oracle``
fixture does that for the modules that opt in.
"""

from __future__ import annotations

import weakref
from typing import Generator

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm, Envelope
from repro.mpi.datatypes import HEADER_BYTES, payload_nbytes
from repro.mpi.request import Request
from repro.simulate import Resource


class EventChain:
    """One network's transfers as kernel events."""

    def __init__(self, network):
        self.network = network
        env = network.env
        self.tx = [Resource(env, capacity=1) for _ in network.nodes]
        self.rx = [Resource(env, capacity=1) for _ in network.nodes]
        self.active_flows = 0

    def transfer(self, src: int, dst: int, nbytes: int) -> Generator:
        """Move ``nbytes`` from node ``src`` to node ``dst``; returns
        once the message has fully arrived at the receiver."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        net = self.network
        env = net.env
        start = env.now
        if src == dst:
            node = net.nodes[src]
            yield env.sleep(net.memory_latency +
                            nbytes / node.memory_bandwidth)
        else:
            src_nic = net.nodes[src].nic
            dst_nic = net.nodes[dst].nic
            bw = min(src_nic.bandwidth, dst_nic.bandwidth)
            wire_time = nbytes * (1.0 / bw + net.per_byte_overhead)
            if net.software_overhead > 0:
                yield env.sleep(net.software_overhead)
            t_arrive = env.now
            # Sender's engine first, then the receiver's: every transfer
            # locks tx(src) then rx(dst), and one holding rx never waits
            # on a tx, so there is no deadlock cycle.
            tx_req = self.tx[src].request()
            yield tx_req
            rx_req = self.rx[dst].request()
            yield rx_req
            # Endpoint congestion: a transfer that had to queue pays
            # degraded throughput once it gets the wire.
            if env.now > t_arrive:
                wire_time *= 1.0 + net.contention_penalty
            # Backplane oversubscription, sampled at wire start.
            self.active_flows += 1
            demand = self.active_flows * bw
            if demand > net.backplane_bandwidth:
                wire_time *= demand / net.backplane_bandwidth
            try:
                yield env.sleep(wire_time)
            finally:
                self.active_flows -= 1
                self.tx[src].release(tx_req)
                self.rx[dst].release(rx_req)
            # Propagation latency after the engines are released.
            yield env.sleep(net.latency)
            src_nic.bytes_sent += nbytes
            dst_nic.bytes_received += nbytes
        stats = net.stats
        stats.messages += 1
        stats.bytes += nbytes
        stats.busy_time += env.now - start


_chains: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def event_chain(network) -> EventChain:
    """The event chain of ``network`` (created on first use)."""
    chain = _chains.get(network)
    if chain is None:
        chain = _chains[network] = EventChain(network)
    return chain


def send_raw(comm: Comm, payload, dest: int, tag: int) -> Generator:
    """The generator send: the transfer, then the mailbox put."""
    shared = comm._shared
    nbytes = payload_nbytes(payload)
    shared.stats.sends += 1
    shared.stats.bytes_sent += nbytes
    yield from event_chain(shared.network).transfer(
        shared.nodes[comm.rank], shared.nodes[dest], nbytes + HEADER_BYTES)
    yield shared.mailboxes[dest].put(
        Envelope(source=comm.rank, tag=tag, payload=payload, nbytes=nbytes))


def isend(comm: Comm, payload, dest: int, tag: int = 0) -> Request:
    """A process running the blocking send."""
    comm._check_rank(dest, "destination")
    proc = comm.env.process(comm._send_raw(payload, dest, tag),
                            name=f"isend:{comm.rank}->{dest}")
    return Request(comm.env, proc)


def irecv(comm: Comm, source: int = ANY_SOURCE,
          tag: int = ANY_TAG) -> Request:
    """A process running the blocking receive."""
    if source != ANY_SOURCE:
        comm._check_rank(source, "source")
    proc = comm.env.process(comm.recv(source, tag),
                            name=f"irecv:{comm.rank}")
    return Request(comm.env, proc)


def install(monkeypatch) -> None:
    """Route ``Comm._send_raw``, ``isend`` and ``irecv`` through the
    event chain in worlds built with ``fastpath=False``."""
    for name, oracle in (("_send_raw", send_raw), ("isend", isend),
                         ("irecv", irecv)):
        def routed(comm, *args, _product=getattr(Comm, name),
                   _oracle=oracle, **kwargs):
            run = _product if comm._shared.world.fastpath else _oracle
            return run(comm, *args, **kwargs)
        monkeypatch.setattr(Comm, name, routed)
