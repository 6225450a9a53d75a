"""Bit-identity of the detached ``bcast``/``barrier`` kernels.

``fastcoll.detached_call`` computes the two collectives the LU walk
issues with flat kernels instead of the hop-level ``CollSim`` machine.
The contract is stricter than the fast path's: completion times, the
scratch NIC engine state carried between calls and every counter must
be ``==`` to ``CollSim`` over ``DetachedSender``/``Wire`` (kept as
``fastcoll.collsim_call``); only ``NetworkStats.busy_time`` — the same
terms summed in another order — gets the 1e-12 association band
docs/phantom.md documents.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import repro.apps.lu as lu
from repro.blacs import ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor
from repro.mpi import SUM, Phantom, fastcoll
from repro.mpi.comm import CommStats
from repro.simulate import Environment

NUM_NODES = 44


def observe(call, nodes, kind, times, nbytes, root, engines, penalty,
            tweak=None):
    """Run one detached collective on a fresh machine; everything the
    contract covers, with ``busy_time`` apart."""
    machine = Machine(Environment(), MachineSpec(
        num_nodes=NUM_NODES, contention_penalty=penalty))
    if tweak is not None:
        tweak(machine)
    network = machine.network
    network.stats.busy_time = 0.25          # sums continue, not restart
    payloads = [None] * len(nodes)
    payloads[root] = Phantom(nbytes)
    engines = copy.deepcopy(engines)
    stats = CommStats()
    out = call(network, nodes, kind, times, payloads, root=root,
               engines=engines, stats=stats)
    exact = (out, engines, (stats.sends, stats.bytes_sent),
             [(node.nic.bytes_sent, node.nic.bytes_received)
              for node in machine.nodes],
             (network.stats.messages, network.stats.bytes))
    return exact, network.stats.busy_time


def assert_identical(*args, **kwargs):
    kernel, kernel_busy = observe(fastcoll.detached_call, *args, **kwargs)
    ref, ref_busy = observe(fastcoll.collsim_call, *args, **kwargs)
    assert kernel == ref
    assert kernel_busy == pytest.approx(ref_busy, rel=1e-12)


@st.composite
def calls(draw):
    n = draw(st.integers(2, 40))
    nodes = draw(st.permutations(range(NUM_NODES)))[:n]
    base = draw(st.sampled_from([0.0, 1.0, 977.125]))
    spread = draw(st.sampled_from([0.0, 1e-4, 5e-2]))
    offset = st.floats(0.0, spread, allow_nan=False)
    shape = draw(st.sampled_from(["equal", "tied", "skewed"]))
    if shape == "equal":
        times = [base] * n
    elif shape == "tied":
        pool = draw(st.lists(offset, min_size=1, max_size=3))
        times = [base + draw(st.sampled_from(pool)) for _ in range(n)]
    else:
        times = [base + draw(offset) for _ in range(n)]
    # Residual engine state on some nodes, before and after the arrivals.
    residual = st.floats(base - 1e-2, base + 1e-2, allow_nan=False)
    engines = draw(st.dictionaries(
        st.integers(0, NUM_NODES - 1),
        st.lists(residual, min_size=2, max_size=2), max_size=NUM_NODES))
    return (nodes, draw(st.sampled_from(["bcast", "barrier"])), times,
            draw(st.sampled_from([0, 1, 4096, 65536, 1_000_000])),
            draw(st.integers(0, n - 1)), engines,
            draw(st.sampled_from([0.0, 0.2])))


@settings(deadline=None, max_examples=300)
@given(call=calls())
def test_kernels_match_collsim(call):
    assert_identical(*call)


def _one_quiet_hop(t0):
    """End of an uncontended 64-byte hop started at ``t0``, bit for bit
    as the barrier computes it (``transfer_time`` associates the same
    terms differently)."""
    network = Machine(Environment(), MachineSpec(
        num_nodes=NUM_NODES)).network
    return fastcoll.collsim_call(network, [0, 1], "barrier", [t0, t0],
                                 [None, None])[0]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 36])
def test_barrier_takes_both_sides_of_the_precondition(monkeypatch, n):
    ordered = []
    walk = fastcoll._barrier_ordered
    monkeypatch.setattr(
        fastcoll, "_barrier_ordered",
        lambda *args: ordered.append(n) or walk(*args))
    nodes = list(range(n))
    skewed = [3.0 + 1e-5 * ((7 * r) % n) for r in range(n)]
    # Quiet engines, synchronized or skewed entry: round by round.
    for times in ([3.0] * n, skewed):
        assert_identical(nodes, "barrier", times, 0, 0, {}, 0.2)
    assert not ordered
    # Rank 1's receive engine is still busy when round 0 reaches it.
    assert_identical(nodes, "barrier", skewed, 0, 0, {1: [0.0, 3.01]}, 0.2)
    assert len(ordered) == 1
    if n > 2:
        # Rank 2 enters at the instant rank 1 starts round 1: both hops
        # go to rank 3 (rank 0 when n == 3) and tie on its engine.
        tied = [2.5] * n
        tied[2] = _one_quiet_hop(2.5)
        assert_identical(nodes, "barrier", tied, 0, 0, {}, 0.2)
        assert len(ordered) == 2
        # Same tie with rank 2's transmit engine busy: its hop is granted
        # long after rank 1's was released, yet CollSim visits it first
        # (arrival before isend completion), so rank 1's hop queues.
        assert_identical(nodes, "barrier", tied, 0, 0,
                         {2: [tied[2] + 1e-2, 0.0]}, 0.2)
        assert len(ordered) == 3


def test_other_inputs_keep_the_collsim_path(monkeypatch):
    """Shared nodes, unlike NICs, one member, and every other kind."""
    def unreachable(*_args):
        raise AssertionError("kernel entered outside its precondition")

    monkeypatch.setattr(fastcoll, "_bcast_kernel", unreachable)
    monkeypatch.setattr(fastcoll, "_barrier_kernel", unreachable)
    times = [0.0, 1e-4, 2e-4, 0.0]

    def slow_nic(machine):
        machine.nodes[2].nic.bandwidth /= 2

    for kind in ("bcast", "barrier"):
        assert_identical([0, 1, 1, 2], kind, times, 4096, 1, {}, 0.2)
        assert_identical([0, 1, 2, 3], kind, times, 4096, 1, {}, 0.2,
                         tweak=slow_nic)
        assert_identical([5], kind, [0.5], 4096, 0, {}, 0.2)
    network = Machine(Environment(), MachineSpec(num_nodes=8)).network
    reduce = (network, [0, 1, 2, 3], "reduce", times, [Phantom(512)] * 4)
    assert fastcoll.detached_call(*reduce, root=2, op=SUM) == \
        fastcoll.collsim_call(*reduce, root=2, op=SUM)


# ---------------------------------------------------------------------------
# The LU walk on top of the kernels
# ---------------------------------------------------------------------------

def _walk(pr, pc, n, nb):
    machine = Machine(Environment(), MachineSpec(num_nodes=pr * pc + 3))
    desc = Descriptor(m=n, n=n, mb=nb, nb=nb, grid=ProcessGrid(pr, pc))
    nodes = [(5 * r + 2) % (pr * pc + 3) for r in range(pr * pc)]
    entries = [10.0 + 3e-4 * ((11 * r) % 7) for r in range(pr * pc)]
    row_stats = [CommStats() for _ in range(pr)]
    col_stats = [CommStats() for _ in range(pc)]
    grid_stats = CommStats()
    times, ipiv = lu._pdgetrf_walk(machine, desc, nodes, entries,
                                   row_stats, col_stats, grid_stats)
    net = machine.network.stats
    return (times, ipiv,
            [(s.sends, s.bytes_sent, s.collectives)
             for s in row_stats + col_stats + [grid_stats]],
            [(node.nic.bytes_sent, node.nic.bytes_received)
             for node in machine.nodes],
            (net.messages, net.bytes)), net.busy_time


@pytest.mark.parametrize("pr,pc,n,nb", [
    (2, 3, 700, 48), (4, 4, 1000, 40), (4, 5, 1500, 64), (5, 5, 1203, 50)])
def test_lu_walk_identical_on_kernels_and_collsim(monkeypatch, pr, pc, n,
                                                  nb):
    kernel, kernel_busy = _walk(pr, pc, n, nb)
    # The walk's own calls and, through replay_chain, the pivot tables.
    monkeypatch.setattr(lu, "detached_call", fastcoll.collsim_call)
    monkeypatch.setattr(fastcoll, "detached_call", fastcoll.collsim_call)
    ref, ref_busy = _walk(pr, pc, n, nb)
    assert kernel == ref
    assert kernel_busy == pytest.approx(ref_busy, rel=1e-12)


@pytest.mark.parametrize("n,nb", [(7, 1), (64, 8), (100, 16), (129, 64)])
def test_synthetic_swaps_fix_only_the_last_row(n, nb):
    """The walk counts a panel's row-moving swaps in closed form."""
    for j0 in range(0, n, nb):
        w = min(nb, n - j0)
        swaps = lu._synthetic_swaps(n, nb, j0, w)
        moving = [(a, b) for a, b in swaps if a != b]
        assert len(moving) == (w - 1 if j0 + w == n else w)
        assert moving == swaps[:len(moving)]
