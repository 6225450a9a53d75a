"""Detached collective chains against the live run they stand for.

``replay_chain``, the LU pivot-round table built on it and the
whole-call LU walk replay a sequence of collectives on scratch engine
state, feeding each collective the previous one's completions.  The
live run interleaves consecutive collectives: a rank that leaves
collective *i* early starts forwarding *i+1* while *i*'s tail is still
on the wire.  When those hops share a NIC, the chain books *i+1* behind
every hop of *i* instead of in time order, so it comes out late.  The
strict xfails pin the measured cases (docs/phantom.md, "Known
deviations": "Overlapping detached collectives"); the plain tests pin
the agreeing neighbours, so the harness itself is known to be right.
"""

import pytest

import repro.mpi.comm as comm_module
from repro.api import run_static
from repro.apps import LUApplication
from repro.apps.lu import _PIVOT_MAX, _pivot_round_table
from repro.cluster import Machine, MachineSpec
from repro.mpi import Phantom, World
from repro.mpi.fastcoll import replay_chain
from repro.simulate import Environment

pytestmark = pytest.mark.usefixtures("p2p_oracle")

OVERLAP = ("detached chains book collective i+1 after every hop of i; "
           "see docs/phantom.md, Overlapping detached collectives")

#: Pivot-round width and item size: a 512-byte pivot-row segment.
W, ITEMSIZE = 64, 8


def _machine(nodes):
    env = Environment()
    return env, Machine(env, MachineSpec(num_nodes=nodes))


def _live_ends(nodes, body, *, fast=True):
    """Per-rank ``body(comm, env)`` return values of one SPMD launch."""
    env, machine = _machine(nodes)
    world = World(env, machine, launch_overhead=0.0,
                  fastpath=fast)
    group = world.launch(lambda comm: body(comm, env),
                         processors=list(range(nodes)))
    env.run()
    return [p.value for p in group.processes]


# ---------------------------------------------------------------------------
# (a) replay_chain: two broadcasts
# ---------------------------------------------------------------------------

def _two_bcasts(nodes, root2):
    _env, machine = _machine(nodes)
    detached = replay_chain(machine.network, list(range(nodes)), [
        ("bcast", 0, [Phantom(64)] * nodes),
        ("bcast", root2, [Phantom(512)] * nodes),
    ])

    def body(comm, env):
        yield from comm.bcast(Phantom(64) if comm.rank == 0 else None,
                              root=0)
        yield from comm.bcast(Phantom(512) if comm.rank == root2 else None,
                              root=root2)
        return env.now

    return detached, _live_ends(nodes, body)


@pytest.mark.xfail(strict=True, reason=OVERLAP)
def test_replay_chain_overlapping_bcasts():
    # Rank 4 is root 0's first child, so it forwards the second
    # broadcast while root 0 still sends the first: live, ranks 0, 1, 2
    # and 4 finish at 1.11093 ms; the chain says 1.38712 ms.
    detached, live = _two_bcasts(5, 4)
    assert detached == live


@pytest.mark.parametrize("nodes,root2", [
    *((5, root) for root in range(4)),
    *((6, root) for root in range(6)),
])
def test_replay_chain_matches_live(nodes, root2):
    detached, live = _two_bcasts(nodes, root2)
    assert detached == live


# ---------------------------------------------------------------------------
# (b) the LU pivot-round table: barrier, then allreduce + bcast
# ---------------------------------------------------------------------------

def _table_and_live(nodes, root, *, fast=True):
    _env, machine = _machine(nodes)
    table, _sends = _pivot_round_table(machine, tuple(range(nodes)), root,
                                       W, ITEMSIZE)

    def body(comm, env):
        # The sampled reference path's round (apps/lu.py _factor_panel).
        yield from comm.barrier()
        t0 = env.now
        yield from comm.allreduce((1.0, comm.rank, 0), op=_PIVOT_MAX)
        yield from comm.bcast(
            Phantom(W * ITEMSIZE) if comm.rank == root else None,
            root=root)
        return env.now - t0

    return list(table), _live_ends(nodes, body, fast=fast)


@pytest.mark.xfail(strict=True, reason=OVERLAP)
def test_pivot_round_table_matches_live_round():
    # Measured mismatches: (5, 4) 16.6 %, (9, 8) 24.8 %, (10, 8) 0.45 %,
    # (10, 9) 11.1 %, (11, 8) 0.13 %, (11, 10) 11.1 %.
    wrong = []
    for nodes in range(2, 13):
        for root in range(nodes):
            table, live = _table_and_live(nodes, root)
            if table != pytest.approx(live, rel=1e-9):
                wrong.append((nodes, root))
    assert wrong == []


@pytest.mark.parametrize("nodes,root", [
    *((5, root) for root in range(4)),
    *((6, root) for root in range(6)),
])
def test_pivot_round_table_agreeing_cases(nodes, root):
    table, live = _table_and_live(nodes, root)
    assert table == pytest.approx(live, rel=1e-12)


@pytest.mark.parametrize("nodes,root", [(10, 8), (11, 8)])
def test_pivot_round_table_matches_generator_round(nodes, root):
    """At these two pairs the table agrees with the generator path over
    the event-chain transfer.  The gap to the default run (0.456 % and
    0.133 %) is the network replay's: the live fast round equals the
    generator round over the replay bit for bit, so the gap is the
    replay's order of sends that end at one instant (docs/phantom.md,
    "Known deviations"), not the fast path's."""
    table, generator = _table_and_live(nodes, root, fast=False)
    assert table == pytest.approx(generator, rel=1e-12)


# ---------------------------------------------------------------------------
# (c) the whole-call LU walk on a 5x1 grid
# ---------------------------------------------------------------------------

def _lu_time(n, *, fast=True):
    """One phantom LU(n) iteration on a 5x1 grid, 64-wide panels."""
    app = LUApplication(n, block=64, iterations=1, materialized=False)
    result = run_static(app, (5, 1), machine_spec=MachineSpec(num_nodes=5),
                        fastpath=fast)
    return result.iteration_times[0]


@pytest.mark.xfail(strict=True, reason=OVERLAP)
def test_lu_walk_5x1_last_panel_root_4():
    # Panel 4 is the first with prow_k = 4: the (5, 4) pivot round of
    # (b), charged 64 times.  The walk is +2.1 %.
    assert _lu_time(320) == pytest.approx(_lu_time(320, fast=False),
                                          rel=1e-12)


def test_lu_walk_5x1_four_panels():
    assert _lu_time(256) == pytest.approx(_lu_time(256, fast=False),
                                          rel=1e-12)


def test_lu_sampled_fast_path_is_the_reference(monkeypatch):
    """With fast collectives, the sampled path equals the generator
    path bit for bit at n=320, so the walk is the side that is off."""
    reference = _lu_time(320, fast=False)
    build = comm_module._build_fastcoll_state

    def shared_nics(shared):
        # A non-exclusive communicator takes the sampled path, not the walk.
        state = build(shared)
        state.exclusive = False
        return state

    monkeypatch.setattr(comm_module, "_build_fastcoll_state", shared_nics)
    assert _lu_time(320) == reference
