"""Compute node, NIC and disk models."""

from __future__ import annotations

from functools import cached_property
from typing import Generator, Optional

from repro.simulate import Environment, Resource


class Nic:
    """A network interface with independent transmit and receive engines.

    Each engine is a capacity-1 :class:`Resource`: a NIC can drive one
    outgoing and one incoming wire transfer at a time, which is how a
    full-duplex Gigabit Ethernet port behaves.  Concurrent transfers
    touching the same NIC therefore serialize — the physical effect that
    makes naive redistribution schedules slow and contention-free
    schedules worth computing.
    """

    def __init__(self, env: Environment, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        #: Sustained point-to-point bandwidth in bytes/second.
        self.bandwidth = bandwidth
        #: Engine availability as seen by the phantom fast path
        #: (``[tx_free, rx_free]`` simulated times).  Fast-path traffic
        #: (point-to-point and collectives) does not hold the
        #: :class:`Resource` engines; the shared network replay tracks
        #: occupancy here so consecutive fast transfers see each
        #: other's serialization (see ``repro.mpi.fastp2p``).
        self.fp_free = [0.0, 0.0]
        #: Cumulative bytes moved, for utilization accounting.
        self.bytes_sent = 0
        self.bytes_received = 0

    # The engines are built on first use: only event-path transfers
    # (``Network.transfer``) hold them, and most machines never run one.
    @cached_property
    def tx(self) -> Resource:
        return Resource(self.env, capacity=1)

    @cached_property
    def rx(self) -> Resource:
        return Resource(self.env, capacity=1)


class Node:
    """A compute node: processors sharing memory and one NIC."""

    def __init__(self, env: Environment, index: int, *,
                 cpus: int = 2,
                 flop_rate: float = 4.4e9,
                 nic_bandwidth: float = 112e6,
                 memory_bandwidth: float = 3.2e9,
                 memory_bytes: int = 4 * 2**30):
        self.env = env
        self.index = index
        self.cpus = cpus
        #: Effective double-precision flop rate per processor (flops/s).
        self.flop_rate = flop_rate
        self.memory_bandwidth = memory_bandwidth
        self.memory_bytes = memory_bytes
        self.nic = Nic(env, nic_bandwidth)

    def compute(self, flops: float) -> Generator:
        """Occupy one processor of this node for ``flops`` of work."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        yield self.env.sleep(flops / self.flop_rate)

    def compute_time(self, flops: float) -> float:
        """Time one processor needs for ``flops`` of local work."""
        return flops / self.flop_rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.index}>"


class Disk:
    """A shared disk with serialized access, for checkpoint/restart.

    The paper's comparator funnels all application data through a single
    node to disk; the disk rate here is calibrated to mid-2000s local
    storage so checkpointing lands in the measured 4.5-14.5x-slower band.
    """

    def __init__(self, env: Environment, *,
                 write_bandwidth: float = 55e6,
                 read_bandwidth: float = 60e6,
                 seek_time: float = 8e-3):
        self.env = env
        self.write_bandwidth = write_bandwidth
        self.read_bandwidth = read_bandwidth
        self.seek_time = seek_time
        self._lock = Resource(env, capacity=1)
        self.bytes_written = 0
        self.bytes_read = 0

    def write_time(self, nbytes: int) -> float:
        """Seconds one write of ``nbytes`` holds the disk."""
        return self.seek_time + nbytes / self.write_bandwidth

    def read_time(self, nbytes: int) -> float:
        """Seconds one read of ``nbytes`` holds the disk."""
        return self.seek_time + nbytes / self.read_bandwidth

    def write(self, nbytes: int, start: Optional[float] = None
              ) -> Generator:
        """Write ``nbytes`` to disk (serialized with other disk users).

        With ``start`` the caller has proved the disk idle (a closed-form
        walk): the write is booked at once and the generator returns its
        end time without yielding.
        """
        if start is not None:
            self.bytes_written += nbytes
            return start + self.write_time(nbytes)
        req = self._lock.request()
        yield req
        try:
            yield self.env.sleep(self.write_time(nbytes))
            self.bytes_written += nbytes
        finally:
            self._lock.release(req)

    def read(self, nbytes: int, start: Optional[float] = None
             ) -> Generator:
        """Read ``nbytes`` from disk (serialized with other disk users);
        ``start`` as for :meth:`write`."""
        if start is not None:
            self.bytes_read += nbytes
            return start + self.read_time(nbytes)
        req = self._lock.request()
        yield req
        try:
            yield self.env.sleep(self.read_time(nbytes))
            self.bytes_read += nbytes
        finally:
            self._lock.release(req)
