"""Simulated hardware substrate.

This package stands in for the paper's physical testbed (System X: 50
nodes of dual 2.3 GHz PowerPC 970, 4 GB RAM, Gigabit Ethernet, MPICH2).
It provides:

* :class:`Node` — a compute node with a flop rate and a NIC.
* :class:`Network` — latency/bandwidth point-to-point transfers with
  per-NIC serialization, so link contention (the thing contention-free
  redistribution schedules exist to avoid) emerges naturally.
* :class:`Disk` — a shared disk for the file-based checkpointing baseline.
* :class:`Machine` — nodes + network + disk; its default
  :class:`MachineSpec` is the paper-calibrated preset.
* :mod:`repro.cluster.topology` — processor-grid arithmetic (parsing
  ``PRxPC`` configurations, legal-config enumeration, the next larger
  legal grid).
"""

from repro.cluster.machine import Machine, MachineSpec
from repro.cluster.network import Network
from repro.cluster.node import Disk, Nic, Node
from repro.cluster.topology import legal_configs_for, parse_config

__all__ = [
    "Disk",
    "Machine",
    "MachineSpec",
    "Network",
    "Nic",
    "Node",
    "legal_configs_for",
    "parse_config",
]
