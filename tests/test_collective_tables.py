"""The collective op tables (``repro.mpi.fastcoll``), checked directly.

Everything that runs a collective — the generator collectives in
``Comm``, ``CollSim``, the detached kernels, the redistribution walk's
barrier and broadcast ops, the one-call SUMMA sweep and the LU
pivot-round table — reads one table per algorithm, so a wrong table
would be wrong everywhere at once.  These tests pin each table's
matching, each table against the textbook loops of
``tests/oracles/collectives.py``, and the sends the generator path
makes against the same loops.
"""

from collections import Counter, defaultdict

import pytest
from oracles.collectives import ORACLES

from repro.cluster import Machine, MachineSpec
from repro.mpi import Phantom, SUM, World
from repro.mpi.comm import Comm
from repro.mpi.fastcoll import (
    ANY_SOURCE,
    RECV,
    SEND,
    TABLES,
)
from repro.simulate import Environment

pytestmark = pytest.mark.usefixtures("p2p_oracle")

SIZES = range(1, 41)
ROOTED = ("bcast", "reduce", "gather")


def cases():
    for kind in TABLES:
        for size in SIZES:
            for root in (range(size) if kind in ROOTED else (0,)):
                yield kind, size, root


def pair_counts(table):
    """Per ordered pair ``(src, dst)``: the sends ``src`` makes to
    ``dst`` and the receives ``dst`` posts for ``src``; per receiver,
    its ``ANY_SOURCE`` receives."""
    sends: Counter = Counter()
    recvs: Counter = Counter()
    wildcard: Counter = Counter()
    for rank, prog in enumerate(table.ops):
        for op in prog:
            if op[0] == SEND:
                sends[rank, op[1]] += 1
            elif op[0] == RECV and op[1] == ANY_SOURCE:
                wildcard[rank] += 1
            elif op[0] == RECV:
                recvs[op[1], rank] += 1
    return sends, recvs, wildcard


def test_every_send_meets_its_receive():
    for kind, size, root in cases():
        sends, recvs, wildcard = pair_counts(TABLES[kind](size, root))
        for dst in range(size):
            inbound = {src: n for (src, to), n in sends.items() if to == dst}
            named = {src: n for (src, to), n in recvs.items() if to == dst}
            if wildcard[dst]:
                # ANY_SOURCE receives match by count, in deposit order.
                assert not named, (kind, size, root, dst)
                assert sum(inbound.values()) == wildcard[dst]
            else:
                # Both sides are FIFO per ordered pair, so equal counts
                # make the k-th send meet the k-th receive.
                assert inbound == named, (kind, size, root, dst)


def run_eagerly(table):
    """Run every rank's program with sends depositing at once; the
    ranks left unfinished (empty when the table cannot deadlock)."""
    size = len(table.ops)
    pc = [0] * size
    mail: list = [[] for _ in range(size)]
    progress = True
    while progress:
        progress = False
        for rank, prog in enumerate(table.ops):
            while pc[rank] < len(prog):
                op = prog[pc[rank]]
                if op[0] == SEND:
                    mail[op[1]].append(rank)
                elif op[0] == RECV:
                    box = mail[rank]
                    src = op[1]
                    if src == ANY_SOURCE and box:
                        box.pop(0)
                    elif src in box:
                        box.remove(src)
                    else:
                        break
                pc[rank] += 1
                progress = True
    assert not any(mail), "a deposit nobody receives"
    return [rank for rank in range(size) if pc[rank] < len(table.ops[rank])]


def test_every_program_runs_to_its_end():
    for kind, size, root in cases():
        assert run_eagerly(TABLES[kind](size, root)) == [], (kind, size,
                                                             root)


def as_oracle_step(op):
    """A table op in the oracle's ``(op, peer, blocking, index)`` form."""
    if op[0] == SEND:
        return ("send", op[1], op[2], op[4])
    if op[0] == RECV:
        return ("recv", op[1], True, op[3])
    return ("wait", None, True, None)


def test_every_table_is_the_textbook_loop():
    for kind, size, root in cases():
        table = TABLES[kind](size, root)
        got = [[as_oracle_step(op) for op in prog] for prog in table.ops]
        assert got == ORACLES[kind](size, root), (kind, size, root)
        assert table.dests == tuple(tuple(op[1] for op in prog
                                          if op[0] == SEND)
                                    for prog in table.ops)
        assert table.srcs == tuple(tuple(op[1] for op in prog
                                         if op[0] == RECV)
                                   for prog in table.ops)


def generator_sends(kind, size, root):
    """Per rank, the destinations of the sends the generator path makes
    for one collective, in order."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=size + 1))
    world = World(env, machine, launch_overhead=0.0,
                  fastpath=False)
    dests = defaultdict(list)
    raw = Comm._send_raw

    def recorded(comm, payload, dest, tag):
        dests[comm.rank].append(dest)
        return raw(comm, payload, dest, tag)

    def main(comm):
        payload = Phantom(64)
        if kind == "barrier":
            yield from comm.barrier()
        elif kind == "bcast":
            yield from comm.bcast(payload if comm.rank == root else None,
                                  root=root)
        elif kind == "reduce":
            yield from comm.reduce(payload, SUM, root=root)
        elif kind == "gather":
            yield from comm.gather(payload, root=root)
        elif kind == "allgather":
            yield from comm.allgather(payload)
        else:
            yield from comm.alltoall([payload] * comm.size)

    group = world.launch(main, processors=list(range(size)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Comm, "_send_raw", recorded)
        env.run()
    assert sum(map(len, dests.values())) == group.comm_shared.stats.sends
    return [dests[rank] for rank in range(size)]


@pytest.mark.parametrize("kind", sorted(TABLES))
@pytest.mark.parametrize("size", [2, 3, 5, 8, 13])
def test_send_counts_match_the_generator_path(kind, size):
    """The generator path runs every send of the textbook loop, to the
    same destinations in the same order, and no other."""
    for root in ((0, size - 1) if kind in ROOTED else (0,)):
        loops = [[step[1] for step in prog if step[0] == "send"]
                 for prog in ORACLES[kind](size, root)]
        assert generator_sends(kind, size, root) == loops, (kind, size,
                                                            root)
