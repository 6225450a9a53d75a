"""Point-to-point tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIError, Phantom, World
from repro.mpi.request import wait_all
from repro.simulate import Environment


def make_world(num_nodes=8, **spec_kwargs):
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=num_nodes, **spec_kwargs))
    world = World(env, machine, launch_overhead=0.0, spawn_overhead=0.0)
    return env, world


def run_spmd(main, nprocs=4, num_nodes=8, **spec_kwargs):
    env, world = make_world(num_nodes=num_nodes, **spec_kwargs)
    group = world.launch(main, processors=list(range(nprocs)))
    env.run()
    return env, [p.value for p in group.processes]


def test_send_recv_roundtrip():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send({"k": 1}, dest=1, tag=5)
            return "sent"
        elif comm.rank == 1:
            data = yield from comm.recv(source=0, tag=5)
            return data
        return None

    _, values = run_spmd(main, nprocs=2)
    assert values == ["sent", {"k": 1}]


def test_send_numpy_array_contents():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(10.0), dest=1)
        else:
            data = yield from comm.recv(source=0)
            return float(data.sum())

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == pytest.approx(45.0)


def test_recv_status_carries_metadata():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(4), dest=1, tag=9)
        else:
            _payload, status = yield from comm.recv_status(ANY_SOURCE,
                                                           ANY_TAG)
            return (status.source, status.tag, status.nbytes)

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == (0, 9, 32)


def test_any_source_matches_both_senders():
    def main(comm):
        if comm.rank in (0, 1):
            yield from comm.send(comm.rank, dest=2, tag=1)
        elif comm.rank == 2:
            a = yield from comm.recv(source=ANY_SOURCE, tag=1)
            b = yield from comm.recv(source=ANY_SOURCE, tag=1)
            return sorted([a, b])
        return None

    _, values = run_spmd(main, nprocs=3)
    assert values[2] == [0, 1]


def test_tag_matching_skips_other_tags():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send("first", dest=1, tag=1)
            yield from comm.send("second", dest=1, tag=2)
        else:
            b = yield from comm.recv(source=0, tag=2)
            a = yield from comm.recv(source=0, tag=1)
            return (a, b)

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == ("first", "second")


def test_message_order_preserved_same_tag():
    def main(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(i, dest=1, tag=0)
        else:
            seen = []
            for _ in range(5):
                seen.append((yield from comm.recv(source=0, tag=0)))
            return seen

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == [0, 1, 2, 3, 4]


def test_isend_overlaps_compute():
    """A nonblocking send of a large message should overlap a timeout."""
    env, world = make_world(num_nodes=2, nic_bandwidth=100e6, latency=0.0)
    done = {}

    def main(comm):
        if comm.rank == 0:
            # 100 MB -> 1 s of wire time.
            req = comm.isend(Phantom(100_000_000), dest=1)
            yield comm.env.timeout(1.0)  # "compute" during the transfer
            yield from req.wait()
            done["sender"] = comm.env.now
        else:
            yield from comm.recv(source=0)
            done["receiver"] = comm.env.now

    world.launch(main, processors=[0, 1])
    env.run()
    # Overlap: total is ~1 s, not ~2 s.
    assert done["sender"] == pytest.approx(1.0, rel=0.01)


def test_irecv_wait_returns_payload():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send("data", dest=1)
        else:
            req = comm.irecv(source=0)
            value = yield from req.wait()
            return value

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == "data"


def test_request_test_polling():
    env, world = make_world(num_nodes=2, nic_bandwidth=100e6, latency=0.0)
    observed = []

    def main(comm):
        if comm.rank == 0:
            req = comm.isend(Phantom(100_000_000), dest=1)  # 1 s
            done, _ = req.test()
            observed.append(done)
            yield comm.env.timeout(2.0)
            done, _ = req.test()
            observed.append(done)
        else:
            yield from comm.recv(source=0)

    world.launch(main, processors=[0, 1])
    env.run()
    assert observed == [False, True]


def test_sendrecv_exchange():
    def main(comm):
        partner = 1 - comm.rank
        got = yield from comm.sendrecv(comm.rank * 10, dest=partner,
                                       source=partner)
        return got

    _, values = run_spmd(main, nprocs=2)
    assert values == [10, 0]


@pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
def test_sendrecv_ring_exchange(nprocs):
    """Every rank shifts a value around a ring in one sendrecv.

    All ranks post head-to-head simultaneously (send right, receive
    left) — the pattern ``MPI_Sendrecv`` guarantees deadlock-free; the
    send and receive must both be outstanding before either is waited
    on.
    """
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = yield from comm.sendrecv(comm.rank, dest=right,
                                       source=left, send_tag=9,
                                       recv_tag=9)
        return got

    _, values = run_spmd(main, nprocs=nprocs)
    assert values == [(r - 1) % nprocs for r in range(nprocs)]


def test_sendrecv_pairwise_same_tag_full_duplex():
    """Head-to-head pairs exchange concurrently: both directions ride
    the full-duplex NICs, so the exchange costs one transfer time, not
    two (the regression the concurrent posting protects)."""
    def timed(serialized):
        env, world = make_world(num_nodes=4)
        out = {}

        def main(comm):
            partner = 1 - comm.rank
            if serialized and comm.rank == 1:
                # Reference: a strictly sequential recv-then-send.
                got = yield from comm.recv(source=partner, tag=3)
                yield from comm.send(Phantom(10_000_000), dest=partner,
                                     tag=3)
            else:
                got = yield from comm.sendrecv(
                    Phantom(10_000_000), dest=partner, source=partner,
                    send_tag=3, recv_tag=3)
            out[comm.rank] = comm.env.now
            return got

        world.launch(main, processors=[0, 1])
        env.run()
        return max(out.values())

    assert timed(serialized=False) < timed(serialized=True)


def test_wait_all_collects_in_order():
    def main(comm):
        if comm.rank == 0:
            reqs = [comm.isend(i, dest=1, tag=i) for i in range(3)]
            yield from wait_all(reqs)
            return "ok"
        else:
            out = []
            for i in (2, 0, 1):
                out.append((yield from comm.recv(source=0, tag=i)))
            return out

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == [2, 0, 1]


def test_bad_dest_rank_raises():
    def main(comm):
        yield from comm.send(1, dest=99)

    env, world = make_world()
    world.launch(main, processors=[0, 1])
    with pytest.raises(MPIError):
        env.run()


def test_negative_user_tag_rejected():
    def main(comm):
        yield from comm.send(1, dest=0, tag=-3)

    env, world = make_world()
    world.launch(main, processors=[0])
    with pytest.raises(MPIError):
        env.run()


def test_comm_stats_count_traffic():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(128), dest=1)
        else:
            yield from comm.recv(source=0)

    env, world = make_world()
    group = world.launch(main, processors=[0, 1])
    env.run()
    stats = group.view(0).stats
    assert stats.sends == 1
    assert stats.bytes_sent == 1024


def test_transfer_charges_simulated_time():
    """A 112 MB message over 112 MB/s GigE takes about a second."""
    env, world = make_world(num_nodes=2, nic_bandwidth=112e6, latency=55e-6)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(Phantom(112_000_000), dest=1)
        else:
            yield from comm.recv(source=0)

    world.launch(main, processors=[0, 1])
    env.run()
    assert env.now == pytest.approx(1.0, rel=0.01)


def test_phantom_payload_roundtrip():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(Phantom(1000, meta="blockA"), dest=1)
        else:
            p = yield from comm.recv(source=0)
            return (p.nbytes, p.meta)

    _, values = run_spmd(main, nprocs=2)
    assert values[1] == (1000, "blockA")


def test_equal_phantoms_hash_equal():
    """Hash agrees with __eq__, which compares meta by value."""
    a = Phantom(8, meta=("redist", (0, 0), (0, 1)))
    b = Phantom(8, meta=tuple(["redist", (0, 0), (0, 1)]))
    assert a.meta is not b.meta
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, Phantom(8, meta=("redist", (0, 0), (1, 1)))}) == 2
    # Unhashable meta is allowed: only nbytes feeds the hash.
    assert hash(Phantom(8, meta=["blockA"])) == hash(Phantom(8))
