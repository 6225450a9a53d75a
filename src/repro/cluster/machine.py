"""A machine = nodes + interconnect + disk, with the System X preset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.network import Network
from repro.cluster.node import Disk, Node
from repro.simulate import Environment


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a homogeneous cluster.

    Defaults are calibrated to the paper's System X partition: 2.3 GHz
    PowerPC 970 processors (peak 9.2 GF/s, effective dense-kernel rate
    about 4.4 GF/s — backed out of the paper's own measurement of LU on a
    12000x12000 matrix taking 129.63 s on 2 processors) and MPICH2 over
    Gigabit Ethernet.  The network numbers are *effective* MPICH2-over-
    TCP figures, not line rate: ~60 MB/s sustained per flow, ~150 us
    end-to-end latency, ~120 us per-message software path, and a
    1.5 GB/s shared switch fabric.  With these, the simulated LU(12000)
    scaling curve reproduces the paper's shape: strong early speedup
    (102 s at 4 processors vs the paper's 112.5 s; 81 s at 6 vs 82.3 s),
    taper, and a point past which adding processors makes iterations
    slower (paper: at 16 processors; simulated: at 25).
    """

    num_nodes: int = 50
    cpus_per_node: int = 1
    flop_rate: float = 4.4e9
    nic_bandwidth: float = 60e6
    memory_bandwidth: float = 3.2e9
    memory_bytes: int = 4 * 2**30
    latency: float = 150e-6
    memory_latency: float = 1.2e-6
    contention_penalty: float = 0.2
    software_overhead: float = 120e-6
    backplane_bandwidth: float = 1.5e9
    disk_write_bandwidth: float = 55e6
    disk_read_bandwidth: float = 60e6

    @property
    def total_processors(self) -> int:
        return self.num_nodes * self.cpus_per_node


class Machine:
    """A simulated homogeneous cluster.

    Processors are numbered globally ``0 .. total_processors-1``;
    processor ``p`` lives on node ``p // cpus_per_node``.  The scheduler
    allocates processors; the network moves bytes between the nodes that
    host them.
    """

    def __init__(self, env: Environment, spec: Optional[MachineSpec] = None):
        self.env = env
        self.spec = spec or MachineSpec()
        self.nodes = [
            Node(env, i,
                 cpus=self.spec.cpus_per_node,
                 flop_rate=self.spec.flop_rate,
                 nic_bandwidth=self.spec.nic_bandwidth,
                 memory_bandwidth=self.spec.memory_bandwidth,
                 memory_bytes=self.spec.memory_bytes)
            for i in range(self.spec.num_nodes)
        ]
        self.network = Network(env, self.nodes,
                               latency=self.spec.latency,
                               memory_latency=self.spec.memory_latency,
                               contention_penalty=self.spec.contention_penalty,
                               software_overhead=self.spec.software_overhead,
                               backplane_bandwidth=self.spec.backplane_bandwidth)
        self.disk = Disk(env,
                         write_bandwidth=self.spec.disk_write_bandwidth,
                         read_bandwidth=self.spec.disk_read_bandwidth)

    @property
    def total_processors(self) -> int:
        return self.spec.total_processors

    def node_of(self, processor: int) -> int:
        """Node index hosting global processor index ``processor``."""
        if not 0 <= processor < self.total_processors:
            raise ValueError(f"processor {processor} out of range "
                             f"0..{self.total_processors - 1}")
        return processor // self.spec.cpus_per_node

