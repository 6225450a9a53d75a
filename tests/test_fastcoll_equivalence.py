"""Clock-equivalence of the phantom fast path against the generator path.

The fast-path contract (docs/phantom.md): with the same inputs, a
fast-path collective produces *identical* simulated completion times,
return values, ``CommStats`` and ``NetworkStats`` counters as the
generator algorithm it short-circuits.  These property tests drive both
paths over randomized rank counts, payload sizes and per-rank arrival
skews and require bit-identical clocks.

The composite kernels (LU) additionally pin the closed-form per-panel
tables and the O(1) iteration replay against the sampled reference
path.  Those are exact up to floating-point association and the
resolution order of exactly-tied NIC grants (see docs/phantom.md), so
they get a tight band instead of equality.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import run_static
from repro.apps import (
    FFT2DApplication,
    JacobiApplication,
    LUApplication,
    MatMulApplication,
)
from repro.cluster import Machine, MachineSpec
from repro.mpi import MAX, Phantom, SUM, World
from repro.simulate import Environment
import repro.mpi.comm as comm_module

pytestmark = pytest.mark.usefixtures("p2p_oracle")


def run_both(main, nprocs, *, num_nodes=None, **spec_kwargs):
    """Run ``main`` SPMD with the fast path off and on; return both
    observations as ``(end_times, values, comm_stats, net_stats)``.

    The off leg, ``World(fastpath=False)`` under the ``p2p_oracle``
    fixture, is the pristine event-kernel path.
    """
    out = []
    for fast in (False, True):
        env = Environment()
        machine = Machine(env, MachineSpec(
            num_nodes=num_nodes or max(nprocs, 2), **spec_kwargs))
        world = World(env, machine, launch_overhead=0.0,
                      fastpath=fast)
        group = world.launch(main, processors=list(range(nprocs)))
        env.run()
        shared = group.comm_shared
        out.append((
            env.now,
            [p.value for p in group.processes],
            (shared.stats.sends, shared.stats.bytes_sent,
             shared.stats.collectives),
            (machine.network.stats.messages, machine.network.stats.bytes),
        ))
    return out


def normalize(value):
    """Phantoms compare by identity-ish semantics; compare byte counts."""
    if isinstance(value, Phantom):
        return ("phantom", value.nbytes)
    if isinstance(value, (list, tuple)):
        return tuple(normalize(v) for v in value)
    return value


def assert_equivalent(slow, fast):
    assert slow[0] == fast[0], "simulated end time diverged"
    assert [normalize(v) for v in slow[1]] == \
           [normalize(v) for v in fast[1]], "return values diverged"
    assert slow[2] == fast[2], "CommStats diverged"
    assert slow[3] == fast[3], "NetworkStats diverged"


def distinct_nonzero(skew):
    """No two ranks share one exact nonzero arrival offset.

    Two identical stragglers can make two transfers request the same
    NIC engine at the *bit-identical* instant; the event kernel and the
    arithmetic replay then pick equally valid but different grant
    orders (a documented caveat — see docs/phantom.md).  Everything
    else must match exactly, so the strategy keeps zero skews (the
    synchronized SPMD case) and arbitrary distinct offsets.
    """
    nonzero = [s for s in skew if s != 0.0]
    return len(nonzero) == len(set(nonzero))


skews = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=0.0, max_value=0.01,
                        allow_nan=False, allow_infinity=False)),
    min_size=13, max_size=13).filter(distinct_nonzero)


@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 13), skew=skews)
def test_barrier_equivalence(nprocs, skew):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        yield from comm.barrier()
        return comm.env.now

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 13), root=st.integers(0, 12),
       nbytes=st.integers(0, 5_000_000), skew=skews)
def test_bcast_equivalence(nprocs, root, nbytes, skew):
    root = root % nprocs

    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        payload = Phantom(nbytes) if comm.rank == root else None
        result = yield from comm.bcast(payload, root=root)
        assert result.nbytes == nbytes
        return comm.env.now

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 13), root=st.integers(0, 12),
       nbytes=st.integers(0, 1_000_000), skew=skews)
@example(nprocs=13, root=2, nbytes=0, skew=[0.0] * 13)
def test_reduce_equivalence(nprocs, root, nbytes, skew):
    root = root % nprocs

    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        result = yield from comm.reduce(Phantom(nbytes), SUM, root=root)
        return (comm.env.now, None if result is None else result.nbytes)

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=20)
@given(nprocs=st.integers(2, 13), nbytes=st.integers(0, 1_000_000),
       skew=skews)
def test_allreduce_equivalence(nprocs, nbytes, skew):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        result = yield from comm.allreduce(Phantom(nbytes), MAX)
        return (comm.env.now, result.nbytes)

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 13), root=st.integers(0, 12), skew=skews)
def test_gather_equivalence(nprocs, root, skew):
    root = root % nprocs

    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        result = yield from comm.gather(Phantom(1000 + comm.rank),
                                        root=root)
        return (comm.env.now,
                None if result is None else [p.nbytes for p in result])

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 13), skew=skews)
def test_allgather_equivalence(nprocs, skew):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        result = yield from comm.allgather(Phantom(500 * (comm.rank + 1)))
        return (comm.env.now, [p.nbytes for p in result])

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=30)
@given(nprocs=st.integers(2, 10), skew=skews, seed=st.integers(0, 999))
def test_alltoall_equivalence(nprocs, skew, seed):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        out = [Phantom((seed + comm.rank * comm.size + d) * 97 % 40_000)
               for d in range(comm.size)]
        result = yield from comm.alltoall(out)
        return (comm.env.now, [p.nbytes for p in result])

    assert_equivalent(*run_both(main, nprocs))


@settings(deadline=None, max_examples=15)
@given(nprocs=st.integers(2, 10), skew=skews)
def test_back_to_back_collectives_equivalence(nprocs, skew):
    """Sequences exercise the persisted NIC availability (fp_free)."""
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        yield from comm.barrier()
        r1 = yield from comm.allreduce(Phantom(4096), SUM)
        r2 = yield from comm.bcast(
            Phantom(65536) if comm.rank == 0 else None, root=0)
        yield from comm.allgather(Phantom(128))
        yield from comm.barrier()
        return (comm.env.now, r1.nbytes, r2.nbytes)

    assert_equivalent(*run_both(main, nprocs))


def test_fastpath_covers_shared_nodes():
    """Ranks sharing nodes (cpus_per_node=2) ride the fast path now —
    the shared network replay models rank-per-node NIC queueing and the
    same-node memory path exactly — with identical clocks."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=2, cpus_per_node=2))
    world = World(env, machine, launch_overhead=0.0)

    def probe(comm):
        yield from comm.barrier()

    group = world.launch(probe, processors=[0, 1, 2, 3])
    assert group.view(0)._fastcoll() is not None
    env.run()

    def main(comm):
        yield from comm.barrier()
        r = yield from comm.allreduce(Phantom(4096), SUM)
        r2 = yield from comm.bcast(
            Phantom(65536) if comm.rank == 0 else None, root=0)
        yield from comm.allgather(Phantom(128 * (comm.rank + 1)))
        return (comm.env.now, r.nbytes, r2.nbytes)

    assert_equivalent(*run_both(main, 4, num_nodes=2, cpus_per_node=2))


@settings(deadline=None, max_examples=15)
@given(nprocs=st.integers(2, 8), skew=skews)
def test_fastpath_covers_shared_nodes_property(nprocs, skew):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        yield from comm.barrier()
        r = yield from comm.allreduce(Phantom(10_000), SUM)
        yield from comm.barrier()
        return (comm.env.now, r.nbytes)

    assert_equivalent(*run_both(main, nprocs,
                                num_nodes=max(2, (nprocs + 1) // 2),
                                cpus_per_node=2))


def test_fastpath_covers_tight_backplane():
    """size * bandwidth above the backplane no longer declines the fast
    path: the replay samples backplane flow-sharing exactly."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=8,
                                       backplane_bandwidth=100e6))
    world = World(env, machine, launch_overhead=0.0)

    def probe(comm):
        yield from comm.barrier()

    group = world.launch(probe, processors=list(range(8)))
    assert group.view(0)._fastcoll() is not None
    env.run()

    def main(comm):
        yield from comm.barrier()
        # The ring allgather keeps `size` concurrent flows on the wire —
        # far above the 100 MB/s backplane — so every wire time pays the
        # oversubscription multiplier the event kernel samples.
        items = yield from comm.allgather(Phantom(50_000))
        r = yield from comm.allreduce(Phantom(12_345), SUM)
        yield from comm.barrier()
        return (comm.env.now, [p.nbytes for p in items], r.nbytes)

    assert_equivalent(*run_both(main, 8, num_nodes=8,
                                backplane_bandwidth=100e6))


@settings(deadline=None, max_examples=15)
@given(nprocs=st.integers(2, 10), skew=skews,
       nbytes=st.integers(1, 2_000_000))
def test_fastpath_tight_backplane_property(nprocs, skew, nbytes):
    def main(comm):
        yield comm.env.timeout(skew[comm.rank])
        yield from comm.barrier()
        items = yield from comm.allgather(Phantom(nbytes))
        yield from comm.barrier()
        return (comm.env.now, len(items))

    assert_equivalent(*run_both(main, nprocs, num_nodes=nprocs,
                                backplane_bandwidth=150e6))


def test_fastpath_respects_world_switch():
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=4))
    world = World(env, machine, launch_overhead=0.0,
                  fastpath=False)

    def main(comm):
        yield from comm.barrier()

    group = world.launch(main, processors=[0, 1])
    assert group.view(0)._fastcoll() is None
    env.run()


# ---------------------------------------------------------------------------
# Composite kernels: the LU panel tables and iteration replay
# ---------------------------------------------------------------------------

def _iteration_times(app_cls, config, n, block, fast, *, iterations=3,
                     **kwargs):
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=16))
    original = comm_module.World.__init__

    def patched(self, *args, **kw):
        kw["fastpath"] = fast
        original(self, *args, **kw)

    comm_module.World.__init__ = patched
    try:
        app = app_cls(n, block=block, iterations=iterations,
                      materialized=False, **kwargs)
        result = run_static(app, config, env=env, machine=machine)
    finally:
        comm_module.World.__init__ = original
    return result.iteration_times


@pytest.mark.parametrize("config,n,block", [
    ((2, 2), 480, 48),
    ((2, 3), 960, 64),
    ((3, 2), 600, 40),
])
def test_lu_phantom_fast_path_matches_reference(config, n, block):
    """Panel cost tables + O(1) iteration replay vs the sampled path.

    Exact up to float association and tied-NIC-grant ordering — both
    below 1e-3 relative by a wide margin (see docs/phantom.md).
    """
    slow = _iteration_times(LUApplication, config, n, block, False)
    fast = _iteration_times(LUApplication, config, n, block, True)
    assert fast == pytest.approx(slow, rel=1e-3)


def test_lu_iteration_replay_is_constant_per_config():
    """After the first measured iteration, replays charge the same time."""
    fast = _iteration_times(LUApplication, (2, 2), 480, 48, True,
                            iterations=4)
    assert fast[1] == pytest.approx(fast[2], rel=1e-9)
    assert fast[2] == pytest.approx(fast[3], rel=1e-9)


@pytest.mark.parametrize("app_cls,config,n,block", [
    (JacobiApplication, (4, 1), 200, 25),
    (FFT2DApplication, (4, 1), 64, 4),
])
def test_app_phantom_fast_path_exact(app_cls, config, n, block):
    slow = _iteration_times(app_cls, config, n, block, False)
    fast = _iteration_times(app_cls, config, n, block, True)
    assert fast == slow


@pytest.mark.parametrize("config,n,block", [
    ((2, 2), 192, 24),
    ((2, 3), 192, 24),
])
def test_matmul_iteration_replay_matches_reference(config, n, block):
    """SUMMA rides the generalized measure-once replay: the first two
    iterations are measured live (and must be bit-exact against the
    event path); replayed iterations agree to float cancellation of the
    absolute clocks (well under the 1e-9 drift budget)."""
    slow = _iteration_times(MatMulApplication, config, n, block, False,
                            iterations=5)
    fast = _iteration_times(MatMulApplication, config, n, block, True,
                            iterations=5)
    assert fast[:2] == slow[:2]
    assert fast == pytest.approx(slow, rel=1e-12)
    # And the replay really is constant per configuration.
    assert fast[2] == fast[3] == fast[4]
