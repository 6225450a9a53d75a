"""Phantom ``pdgemm`` as one live collective call, against its references.

On a grid whose ranks own their nodes and whose flows fit the backplane,
a phantom SUMMA sweep runs as one live call: a single ``CollSim``
interprets every rank's program (per block step the row broadcast, the
column broadcast and the local GEMM) and registers each hop on the shared
network replay at its start time.  It must book what the per-broadcast
paths book:

* the generator path, ``World(fastpath=False)``: ``Comm.bcast``'s
  binomial tree, every hop a ``Network.transfer``;
* the replayed path, the same run with the gate (``matmul._one_call``)
  off: the same tree, every hop a send on the network replay and the
  grid barrier a live call.

Completion times, ``CommStats`` of every row and column communicator,
``_coll_seq``, ``NetworkStats`` and NIC byte counters compare with ``==``
(and ``fp_free`` too, which only the replayed paths keep);
``busy_time`` sums the same terms in another order, so it gets 1e-12
relative.

The two references themselves disagree on some exactly tied hops, and
the difference lies in the network replay, not in the broadcast: the
replay delivers the sends that complete at one instant through one
batch record, so every blocking sender resumes before any receiver,
where ``Network.transfer`` resumes each sender just before its own
receiver; the replayed barrier also releases ranks due at one instant
in its own order.  When two hops sent next tie on a receive engine or a
full backplane, that order decides which one pays.  Where the
references disagree, the one-call path must match one of them
(``test_tie_where_the_replay_differs_from_the_generator`` pins a case
where it follows the generator path); where they agree, it must match
both.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.apps.matmul as matmul
import repro.mpi.fastcoll as fastcoll
from repro.apps.base import AppContext
from repro.blacs import BlacsContext, ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor, DistributedMatrix
from repro.mpi import Phantom, World
from repro.simulate import Environment

GRIDS = [(1, 2), (2, 1), (1, 6), (2, 3), (3, 2), (2, 4), (4, 4), (4, 5),
         (5, 5), (3, 5)]
NIC = MachineSpec().nic_bandwidth


def sweep(mode, pr, pc, n, nb, pre, post, *, calls=1, noise=0,
          materialized=False, world_kw=None, **spec_kw):
    """``calls`` back-to-back ``pdgemm`` calls on a ``pr x pc`` grid.

    Rank ``r`` sleeps ``pre[r]``, joins a grid barrier, sleeps
    ``post[r]`` and calls ``pdgemm``.  ``mode`` is ``"call"``,
    ``"replay"`` (gate off) or ``"generator"`` (fast path off).  A
    second job runs ``noise`` one-way message streams on nodes of its
    own, and then the backplane has room for exactly the grid's flows.
    """
    size = pr * pc
    extra = 2 * noise
    spec = dict(num_nodes=size + extra)
    if noise:
        spec["backplane_bandwidth"] = size * NIC
    spec.update(spec_kw)
    env = Environment()
    machine = Machine(env, MachineSpec(**spec))
    switches = dict(fastpath=mode != "generator")
    switches.update(world_kw or {})
    world = World(env, machine, launch_overhead=0.0, **switches)
    desc = Descriptor(m=n, n=n, mb=nb, nb=nb, grid=ProcessGrid(pr, pc))
    if materialized:
        rng = np.random.default_rng(5)
        mats = [DistributedMatrix.from_global(rng.standard_normal((n, n)),
                                              desc) for _ in range(2)]
        mats.append(DistributedMatrix(desc))
    else:
        mats = [DistributedMatrix(desc, materialized=False)
                for _ in range(3)]
    ends, contexts = {}, {}

    def main(comm):
        blacs = yield from BlacsContext.create(comm, pr, pc)
        ctx = AppContext(blacs.comm, blacs, {}, machine)
        contexts[comm.rank] = blacs
        if pre[comm.rank]:
            yield env.sleep(pre[comm.rank])
        yield from blacs.comm.barrier()
        if post[comm.rank]:
            yield env.sleep(post[comm.rank])
        ends[comm.rank] = []
        for _ in range(calls):
            yield from matmul.pdgemm(ctx, *mats)
            ends[comm.rank].append(env.now)

    def streams(comm):
        # One-way streams, offset so that no hop ties another.
        if comm.rank % 2:
            for _ in range(40):
                yield from comm.recv(comm.rank - 1)
            return
        yield env.sleep(1.234567e-5 * (comm.rank + 1))
        for _ in range(40):
            yield from comm.send(Phantom(200_000 + 777 * comm.rank),
                                 comm.rank + 1)

    gate = (lambda blacs, mat: None) if mode == "replay" else matmul._one_call
    with mock.patch.object(matmul, "_one_call", gate):
        world.launch(main, processors=list(range(size)))
        if noise:
            world.launch(streams, processors=list(range(size, size + extra)))
        env.run()
    net = machine.network
    stats = {}
    for blacs in contexts.values():
        for name, comm in (("row", blacs.row_comm), ("col", blacs.col_comm)):
            s = comm.stats
            stats[name, id(comm._shared)] = (s.collectives, s.sends,
                                             s.bytes_sent)
    return {
        "ends": [ends[r] for r in range(size)],
        "stats": sorted(stats.values()),
        "coll_seq": [(contexts[r].row_comm._coll_seq,
                      contexts[r].col_comm._coll_seq) for r in range(size)],
        "network": (net.stats.messages, net.stats.bytes),
        "nics": [(node.nic.bytes_sent, node.nic.bytes_received)
                 for node in machine.nodes],
        "fp_free": [tuple(node.nic.fp_free) for node in machine.nodes],
        "busy": net.stats.busy_time,
    }


def differences(a, b):
    """Observation names on which ``a`` and ``b`` differ."""
    out = [key for key in ("ends", "stats", "coll_seq", "network", "nics")
           if a[key] != b[key]]
    if abs(a["busy"] - b["busy"]) > 1e-12 * abs(b["busy"]):
        out.append("busy")
    return out


def check(case, *, ties=False):
    """The one-call path against the generator path and the replayed
    per-broadcast path; returns its result.

    ``ties``: where the references disagree (module docstring), the
    one-call path must match one of them."""
    call = sweep("call", **case)
    replay = sweep("replay", **case)
    generator = sweep("generator", **case)
    to_generator = differences(call, generator)
    to_replay = differences(call, replay)
    if call["fp_free"] != replay["fp_free"]:
        to_replay.append("fp_free")
    if ties and differences(replay, generator):
        assert to_generator == [] or to_replay == []
    else:
        assert to_generator == []
        assert to_replay == []
    return call


def delays(seed, size, spread=3e-3):
    rng = random.Random(seed)
    return [rng.choice([0.0, rng.uniform(0.0, spread)]) for _ in range(size)]


def taken(case) -> bool:
    """Whether ``case`` runs the one-call path."""
    programs = []
    real = matmul._summa_program

    def spy(*args):
        programs.append(args)
        return real(*args)

    with mock.patch.object(matmul, "_summa_program", spy):
        sweep("call", **case)
    return bool(programs)


@pytest.mark.parametrize("pr, pc", GRIDS)
def test_grid_with_skewed_entries(pr, pc):
    size = pr * pc
    nb = 3
    case = dict(pr=pr, pc=pc, n=4 * max(pr, pc) * nb + 2, nb=nb,
                pre=delays(size, size), post=delays(size + 1, size))
    assert taken(case)
    check(case)


def test_ragged_last_block_and_rows_without_data():
    # n = 5, nb = 2 on four grid rows: blocks of 2, 2 and 1; row 3 owns
    # no matrix rows (lm == 0), so its panels are empty messages and it
    # never computes.
    case = dict(pr=4, pc=2, n=5, nb=2, pre=delays(1, 8), post=delays(2, 8))
    assert taken(case)
    call = check(case)
    assert call["network"][0] > 0


@pytest.mark.parametrize("pr, pc", [(2, 3), (4, 4), (5, 5)])
def test_exactly_tied_entries(pr, pc):
    size = pr * pc
    rng = random.Random(pr * 10 + pc)
    tied = [[rng.choice([0.0, 2.5e-4]) for _ in range(size)]
            for _ in range(2)]
    check(dict(pr=pr, pc=pc, n=7 * max(pr, pc), nb=2, pre=tied[0],
               post=tied[1]))
    check(dict(pr=pr, pc=pc, n=7 * max(pr, pc), nb=2, pre=[0.0] * size,
               post=[0.0] * size))


def test_waiting_message_costs_its_rank_an_event():
    # Ranks 1, 2, 3, 5 and 6 enter at one instant; 1 and 2 find their
    # row panel already waiting, so they send one event after 3, whose
    # row broadcast hop ties with theirs on a receive engine.
    case = dict(pr=2, pc=4, n=2, nb=1,
                pre=[0.0033, 0.0, 0.0, 0.0, 0.0033, 0.0, 0.0033, 0.0],
                post=[0.0, 0.0033, 0.0033, 0.0033, 0.0033, 0.0033, 0.0033,
                      0.0])
    check(case)


@pytest.mark.parametrize("pr, pc", [(1, 6), (3, 2), (4, 5)])
def test_back_to_back_calls(pr, pc):
    size = pr * pc
    case = dict(pr=pr, pc=pc, n=5 * max(pr, pc) + 1, nb=2, calls=2,
                pre=delays(3, size), post=delays(4, size))
    call = check(case)
    blocks = -(-case["n"] // case["nb"])
    assert call["coll_seq"] == [(2 * blocks, 2 * blocks)] * size


def test_back_to_back_sweeps_share_one_call():
    # Three sweeps with tied entries: ranks leave one sweep and start the
    # next at instants where peers still send hops of the previous one,
    # and two such hops tie on a receive engine.
    case = dict(pr=4, pc=5, n=2, nb=1, calls=3,
                pre=[0.0033, 0.0, 0.0, 0.0033, 0.0, 0.0, 0.0, 0.0033,
                     0.0033, 0.0033, 0.0033, 0.0, 0.0, 0.0, 0.0033, 0.0033,
                     0.0033, 0.0033, 0.0033, 0.0],
                post=[0.0, 0.0, 0.0033, 0.0033, 0.0, 0.0033, 0.0033, 0.0033,
                      0.0, 0.0, 0.0, 0.0033, 0.0033, 0.0033, 0.0, 0.0033,
                      0.0, 0.0033, 0.0, 0.0])
    check(case, ties=True)


def test_rank_sweeps_ahead_of_a_late_peer():
    # One block on a 2x1 grid: rank 0 roots both sweeps' column
    # broadcasts and ends them before rank 1 enters the first, so rank
    # 1's second panel waits in the call while every program has ended.
    check(dict(pr=2, pc=1, n=1, nb=3, calls=2, pre=[0.0, 3.5e-4],
               post=[0.0, 5.7e-4]))


def test_tie_where_the_replay_differs_from_the_generator():
    # Found by a random search: at one instant two blocking senders and
    # their receivers resume; the network replay registers both
    # senders' next hops first, the generator path and the one call
    # interleave sender and receiver, and two hops then tie on one
    # receive engine.
    case = dict(pr=4, pc=4, n=32, nb=4, calls=2,
                pre=[0.0033, 0.0033, 0.0033, 0.0033, 0.0, 0.0, 0.0033,
                     0.0033, 0.0, 0.0, 0.0033, 0.0, 0.0033, 0.0, 0.0033,
                     0.0],
                post=[0.0, 0.0, 0.0, 0.0033, 0.0, 0.0, 0.0033, 0.0, 0.0033,
                      0.0, 0.0, 0.0, 0.0033, 0.0, 0.0033, 0.0])
    call = sweep("call", **case)
    generator = sweep("generator", **case)
    assert differences(call, generator) == []
    assert differences(sweep("replay", **case), generator) != []


@pytest.mark.parametrize("pr, pc", [(2, 4), (3, 5)])
def test_second_job_binds_the_backplane(pr, pc):
    size = pr * pc
    case = dict(pr=pr, pc=pc, n=40, nb=4, noise=size,
                pre=delays(5, size), post=delays(6, size))
    assert taken(case)
    # The rows' broadcasts run in step, so hops of two rows start at one
    # instant; where the backplane is full, their registration order
    # decides which one pays, and on 2x4 the replayed path's order
    # differs from the generator path's (module docstring).
    call = check(case, ties=True)
    roomy = sweep("call", **dict(case, backplane_bandwidth=1e12))
    assert roomy["ends"] != call["ends"]     # the backplane did bind


def test_one_pump_record_per_instant():
    # A pump that re-armed at every firing left stale records behind,
    # and each of those re-armed in turn.
    fired = []
    pump = fastcoll.LiveCall._on_pump

    def spy(call):
        fired.append((id(call), call.env.now))
        pump(call)

    with mock.patch.object(fastcoll.LiveCall, "_on_pump", spy):
        sweep("call", pr=3, pc=5, n=40, nb=2, calls=2, pre=delays(7, 15),
              post=delays(8, 15))
    assert fired and len(fired) == len(set(fired))


@pytest.mark.parametrize("case", [
    dict(materialized=True),
    dict(cpus_per_node=2, num_nodes=4),
    dict(pr=6, pc=5, num_nodes=30),          # 30 flows > the backplane
    dict(world_kw={"fastpath": False}),
], ids=["materialized", "shared-nodes", "not-quiet", "collectives-off"])
def test_declines(case):
    base = dict(pr=2, pc=4, n=24, nb=4)
    base.update(case)
    size = base["pr"] * base["pc"]
    base.update(pre=[0.0] * size, post=[0.0] * size)
    assert not taken(base)


@settings(deadline=None, max_examples=40)
@given(grid=st.sampled_from(GRIDS), nb=st.integers(1, 6),
       blocks=st.integers(1, 12), ragged=st.integers(0, 5),
       calls=st.integers(1, 3), data=st.data())
def test_one_call_matches_both_paths(grid, nb, blocks, ragged, calls, data):
    pr, pc = grid
    size = pr * pc
    n = max(1, (blocks - 1) * nb + 1 + ragged % nb)
    tied = st.sampled_from([0.0, 1e-4, 2.5e-4])
    skewed = st.floats(0.0, 3e-3, allow_nan=False, allow_infinity=False)
    entry = st.lists(st.one_of(tied, skewed), min_size=size,
                     max_size=size)
    check(dict(pr=pr, pc=pc, n=n, nb=nb, calls=calls,
               pre=data.draw(entry), post=data.draw(entry)),
          ties=True)
