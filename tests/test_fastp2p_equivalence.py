"""Clock-equivalence of the point-to-point fast path.

The contract (docs/phantom.md): with the same inputs, a fast-path
``send``/``isend``/``recv``/``sendrecv`` produces *identical* simulated
completion times, payload values and ``CommStats``/``NetworkStats``
counters as the generator transfer chain it replaces — for any payload
(the event chain carries no information beyond the byte count), on any
machine shape: shared nodes (``cpus_per_node > 1``), same-node
shared-memory messages, and backplanes tight enough that concurrent
flows pay the oversubscription multiplier.

The only excluded corner is the event kernel's tie-breaking of
bit-identical simultaneous NIC requests (documented in docs/phantom.md);
the skew strategy below keeps nonzero skews distinct, exactly like the
collective equivalence suite.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine, MachineSpec
from repro.mpi import ANY_SOURCE, Phantom, World
from repro.mpi.request import wait_all
from repro.simulate import Environment


def run_both(main, nprocs, **spec_kwargs):
    """Run ``main`` with the fast path off and on."""
    out = []
    for fast in (False, True):
        env = Environment()
        machine = Machine(env, MachineSpec(
            num_nodes=spec_kwargs.pop("num_nodes", None)
            or max(nprocs, 2), **spec_kwargs))
        spec_kwargs["num_nodes"] = machine.spec.num_nodes
        world = World(env, machine, launch_overhead=0.0, fastpath=fast)
        group = world.launch(main, processors=list(range(nprocs)))
        env.run()
        shared = group.comm_shared
        out.append((
            env.now,
            [p.value for p in group.processes],
            (shared.stats.sends, shared.stats.bytes_sent),
            (machine.network.stats.messages,
             machine.network.stats.bytes,
             machine.network.stats.busy_time,
             tuple((n.nic.bytes_sent, n.nic.bytes_received)
                   for n in machine.nodes)),
        ))
    return out


def assert_equivalent(slow, fast):
    assert slow[0] == fast[0], "simulated end time diverged"
    assert slow[1] == fast[1], "return values diverged"
    assert slow[2] == fast[2], "CommStats diverged"
    s_msgs, s_bytes, s_busy, s_nics = slow[3]
    f_msgs, f_bytes, f_busy, f_nics = fast[3]
    assert (s_msgs, s_bytes, s_nics) == (f_msgs, f_bytes, f_nics), \
        "NetworkStats/NIC counters diverged"
    # busy_time is a float accumulation whose summation order differs
    # between the paths (kernel books at transfer end, replay at
    # resolution) — identical terms, last-ulp association noise only.
    assert s_busy == pytest.approx(f_busy, rel=1e-12)


def distinct_nonzero(skew):
    nonzero = [s for s in skew if s != 0.0]
    return len(nonzero) == len(set(nonzero))


skews = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=0.0, max_value=0.01,
                        allow_nan=False, allow_infinity=False)),
    min_size=10, max_size=10).filter(distinct_nonzero)


# ---------------------------------------------------------------------------
# Deterministic scenarios
# ---------------------------------------------------------------------------

def test_pingpong_real_payloads():
    """Real (non-phantom) values ride the fast path verbatim."""
    def main(comm):
        if comm.rank == 0:
            yield from comm.send({"step": 1, "data": [1, 2, 3]},
                                 dest=1, tag=7)
            reply = yield from comm.recv(source=1, tag=8)
            return reply
        msg = yield from comm.recv(source=0, tag=7)
        yield from comm.send(("ack", msg["step"]), dest=0, tag=8)
        return (comm.env.now, msg["step"])

    assert_equivalent(*run_both(main, 2))


def test_isend_burst_fifo_and_contention():
    """Queued isends serialize on the NIC with the contention penalty."""
    def main(comm):
        if comm.rank == 0:
            reqs = [comm.isend(Phantom(50_000 + i), dest=1, tag=i)
                    for i in range(6)]
            yield from wait_all(reqs)
            return comm.env.now
        got = []
        for i in range(6):
            p = yield from comm.recv(source=0, tag=i)
            got.append((p.nbytes, comm.env.now))
        return got

    assert_equivalent(*run_both(main, 2))


def test_sendrecv_ring():
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        token = yield from comm.sendrecv(("from", comm.rank), dest=right,
                                         source=left, send_tag=3,
                                         recv_tag=3)
        return (comm.env.now, token)

    assert_equivalent(*run_both(main, 5))


def test_any_source_master_worker():
    """ANY_SOURCE matching order is preserved (master-worker pattern)."""
    def main(comm):
        if comm.rank == 0:
            for w in range(1, comm.size):
                yield from comm.send(w * 10, dest=w, tag=1)
            results = []
            for _ in range(comm.size - 1):
                value, status = yield from comm.recv_status(ANY_SOURCE, 2)
                results.append((status.source, value))
            return (comm.env.now, results)
        chunk = yield from comm.recv(source=0, tag=1)
        yield from comm.send(chunk + comm.rank, dest=0, tag=2)
        return comm.env.now

    assert_equivalent(*run_both(main, 6))


def test_same_node_messages_shared_memory_path():
    """cpus_per_node=2: co-located ranks exchange through memory, not
    the NIC, and the fast path is demonstrably taken."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=2, cpus_per_node=2))
    world = World(env, machine, launch_overhead=0.0)

    def probe(comm):
        yield from comm.send(Phantom(100), dest=1)

    def sink(comm):
        if comm.rank == 1:
            yield from comm.recv(source=0)
        else:
            yield from probe(comm)

    group = world.launch(sink, processors=[0, 1])
    assert group.view(0)._fastp2p() is not None
    env.run()
    # The replay was actually engaged (created lazily on first use) and
    # a same-node message never touched the NIC counters.
    assert machine.network._replay is not None
    assert machine.nodes[0].nic.bytes_sent == 0

    def main(comm):
        peer = comm.rank ^ 1          # 0<->1 same node, 2<->3 same node
        far = (comm.rank + 2) % 4     # cross-node partner
        got = yield from comm.sendrecv(Phantom(4096), dest=peer,
                                       source=peer)
        got2 = yield from comm.sendrecv(Phantom(65536), dest=far,
                                        source=far)
        return (comm.env.now, got.nbytes, got2.nbytes)

    assert_equivalent(*run_both(main, 4, num_nodes=2, cpus_per_node=2))


def test_tight_backplane_concurrent_flows():
    """Concurrent p2p flows above the backplane pay the same
    oversubscription multipliers as the event path."""
    def main(comm):
        # Shift-by-one permutation: size concurrent flows at once.
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = yield from comm.sendrecv(Phantom(200_000), dest=right,
                                       source=left)
        return (comm.env.now, got.nbytes)

    assert_equivalent(*run_both(main, 8, num_nodes=8,
                                backplane_bandwidth=120e6))


def test_mixed_with_fast_collectives():
    """p2p and collectives share one replay: NIC state persists across
    both kinds of traffic."""
    def main(comm):
        yield from comm.barrier()
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = yield from comm.sendrecv(Phantom(30_000), dest=right,
                                       source=left)
        yield from comm.barrier()
        return (comm.env.now, got.nbytes)

    assert_equivalent(*run_both(main, 6))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 8), skew=skews,
       nbytes=st.integers(0, 2_000_000), seed=st.integers(0, 99))
def test_p2p_property_plain(nprocs, skew, nbytes, seed):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        payload = Phantom((nbytes + seed * comm.rank) % 2_000_001)
        got = yield from comm.sendrecv(payload, dest=right, source=left)
        yield from comm.send(comm.rank, dest=right, tag=5)
        final = yield from comm.recv(source=left, tag=5)
        return (comm.env.now, got.nbytes, final)

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=25)
@given(nprocs=st.integers(2, 8), skew=skews,
       nbytes=st.integers(1, 500_000))
def test_p2p_property_shared_nodes(nprocs, skew, nbytes):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = yield from comm.sendrecv(Phantom(nbytes), dest=right,
                                       source=left)
        return (comm.env.now, got.nbytes)

    assert_equivalent(*run_both(main, nprocs,
                                num_nodes=max(2, (nprocs + 1) // 2),
                                cpus_per_node=2))


@settings(deadline=None, max_examples=25)
@given(nprocs=st.integers(2, 8), skew=skews,
       nbytes=st.integers(1, 500_000))
def test_p2p_property_tight_backplane(nprocs, skew, nbytes):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = yield from comm.sendrecv(Phantom(nbytes), dest=right,
                                       source=left)
        return (comm.env.now, got.nbytes)

    assert_equivalent(*run_both(main, nprocs, num_nodes=nprocs,
                                backplane_bandwidth=130e6))


@pytest.mark.parametrize("fastpath", [False], ids=["switched-off"])
def test_generator_path_never_touches_the_replay(fastpath):
    """Switched off, collectives and point-to-point both step aside, so
    no replayed flow shares the network with a transfer."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=4))
    world = World(env, machine, launch_overhead=0.0, fastpath=fastpath)

    def main(comm):
        yield from comm.barrier()
        yield from comm.bcast(Phantom(5_000) if comm.rank == 0 else None)
        yield from comm.sendrecv(Phantom(3_000), dest=(comm.rank + 1) % 4,
                                 source=(comm.rank - 1) % 4)

    group = world.launch(main, processors=list(range(4)))
    assert group.view(0)._fastcoll() is None
    assert group.view(0)._fastp2p() is None
    env.run()
    assert machine.network._replay is None
    assert machine.network.stats.messages > 0

