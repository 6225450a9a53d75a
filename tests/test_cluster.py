"""Unit tests for the simulated hardware substrate."""

import pytest

from repro.cluster import (
    Machine,
    MachineSpec,
    Node,
)
from repro.simulate import Environment


def test_node_compute_time():
    env = Environment()
    node = Node(env, 0, flop_rate=1e9)
    assert node.compute_time(2e9) == pytest.approx(2.0)


def test_node_compute_advances_clock():
    env = Environment()
    node = Node(env, 0, flop_rate=1e9)

    def proc():
        yield from node.compute(5e8)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(0.5)


def test_node_negative_flops_rejected():
    env = Environment()
    node = Node(env, 0)

    def proc():
        yield from node.compute(-1.0)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()


def test_transfer_time_formula():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=2, nic_bandwidth=100e6,
                                 latency=50e-6, software_overhead=0.0))
    t = m.network.transfer_time(0, 1, 100_000_000)
    assert t == pytest.approx(50e-6 + 1.0)


def test_transfer_same_node_uses_memory():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=2, memory_bandwidth=1e9,
                                 memory_latency=1e-6))
    t = m.network.transfer_time(0, 0, 1_000_000)
    assert t == pytest.approx(1e-6 + 1e-3)


def test_transfer_advances_clock():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=2, nic_bandwidth=100e6,
                                 latency=0.0, software_overhead=0.0))

    def proc():
        yield m.network.transfer(0, 1, 50_000_000)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(0.5)


def test_transfer_contention_serializes_at_receiver():
    """Two senders to one receiver take twice as long as one."""
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=3, nic_bandwidth=100e6,
                                 latency=0.0, contention_penalty=0.0,
                                 software_overhead=0.0))
    ends = {}

    def sender(src):
        yield m.network.transfer(src, 2, 100_000_000)
        ends[src] = env.now

    env.process(sender(0))
    env.process(sender(1))
    env.run()
    # Each message needs 1 s of wire time into node 2's rx engine.
    assert min(ends.values()) == pytest.approx(1.0)
    assert max(ends.values()) == pytest.approx(2.0)


def test_transfer_disjoint_pairs_run_in_parallel():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=4, nic_bandwidth=100e6,
                                 latency=0.0, software_overhead=0.0))
    ends = []

    def sender(src, dst):
        yield m.network.transfer(src, dst, 100_000_000)
        ends.append(env.now)

    env.process(sender(0, 1))
    env.process(sender(2, 3))
    env.run()
    assert ends == [pytest.approx(1.0), pytest.approx(1.0)]


def test_contention_penalty_inflates_queued_transfers():
    """With the endpoint-congestion model on, fan-in costs extra."""
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=3, nic_bandwidth=100e6,
                                 latency=0.0, contention_penalty=0.25,
                                 software_overhead=0.0))
    ends = {}

    def sender(src):
        yield m.network.transfer(src, 2, 100_000_000)
        ends[src] = env.now

    env.process(sender(0))
    env.process(sender(1))
    env.run()
    # First transfer unaffected; the second queued for the rx engine, so
    # it pays 1.25 s of degraded wire time after waiting 1 s.
    assert min(ends.values()) == pytest.approx(1.0)
    assert max(ends.values()) == pytest.approx(2.25)


def test_transfer_stats_accumulate():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=2))

    def proc():
        yield m.network.transfer(0, 1, 1000)
        yield m.network.transfer(1, 0, 2000)

    env.process(proc())
    env.run()
    assert m.network.stats.messages == 2
    assert m.network.stats.bytes == 3000


def test_disk_write_read_times():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=1, disk_write_bandwidth=50e6,
                                 disk_read_bandwidth=100e6))

    def proc():
        yield from m.disk.write(50_000_000)
        t_after_write = env.now
        yield from m.disk.read(100_000_000)
        return t_after_write

    p = env.process(proc())
    env.run()
    # write: seek + 1 s ; read: seek + 1 s
    assert p.value == pytest.approx(1.0 + m.disk.seek_time)
    assert env.now == pytest.approx(2.0 + 2 * m.disk.seek_time)
    assert m.disk.bytes_written == 50_000_000
    assert m.disk.bytes_read == 100_000_000


def test_disk_serializes_writers():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=1, disk_write_bandwidth=100e6))
    ends = []

    def writer():
        yield from m.disk.write(100_000_000)
        ends.append(env.now)

    env.process(writer())
    env.process(writer())
    env.run()
    assert ends[1] > ends[0]
    assert ends[1] == pytest.approx(2.0 + 2 * m.disk.seek_time)


def test_machine_node_of_mapping():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=4, cpus_per_node=2))
    assert m.node_of(0) == 0
    assert m.node_of(1) == 0
    assert m.node_of(2) == 1
    assert m.node_of(7) == 3
    with pytest.raises(ValueError):
        m.node_of(8)


def test_system_x_preset():
    """The default spec is the paper's 50-node System X partition."""
    env = Environment()
    m = Machine(env)
    assert m.total_processors == 50
    assert m.spec.flop_rate == pytest.approx(4.4e9)


def test_negative_transfer_rejected():
    env = Environment()
    m = Machine(env, MachineSpec(num_nodes=2))

    def proc():
        yield m.network.transfer(0, 1, -5)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()
