"""The collective op tables (``repro.mpi.fastcoll``), checked directly.

Every fast-path consumer — ``CollSim``, the redistribution walk's
barrier and broadcast ops, the one-call SUMMA sweep and the LU
pivot-round table — reads one table per algorithm, so a wrong table
would be wrong everywhere at once.  These tests pin each table's
matching, its send counts against the generator path, and the
broadcast tree against the mask formula.
"""

from collections import Counter

import pytest

from repro.cluster import Machine, MachineSpec
from repro.mpi import Phantom, SUM, World
from repro.mpi.comm import Comm
from repro.mpi.fastcoll import (
    ANY_SOURCE,
    RECV,
    SEND,
    TABLES,
    bcast_table,
)
from repro.simulate import Environment

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


def bcast_oracle(rank, root, size):
    """``Comm.bcast``'s mask loop: the parent and the children in send
    order."""
    relrank = (rank - root) % size
    parent = None
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = ((relrank - mask) + root) % size
            break
        mask <<= 1
    children = []
    mask >>= 1
    while mask > 0:
        if relrank + mask < size:
            children.append((relrank + mask + root) % size)
        mask >>= 1
    return parent, children


def test_bcast_tree_is_the_mask_formula():
    for size in SIZES:
        for root in range(size):
            table = bcast_table(size, root)
            for rank in range(size):
                parent, children = bcast_oracle(rank, root, size)
                recvs = [op[1] for op in table.ops[rank] if op[0] == RECV]
                assert recvs == ([] if parent is None else [parent])
                assert list(table.dests[rank]) == children


def generator_sends(kind, size, root):
    """Per-rank sends the generator path makes for one collective."""
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=size + 1))
    world = World(env, machine, launch_overhead=0.0,
                  fastpath=False)
    counts = Counter()
    raw = Comm._send_raw

    def counted(comm, payload, dest, tag):
        counts[comm.rank] += 1
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
        patch.setattr(Comm, "_send_raw", counted)
        env.run()
    assert sum(counts.values()) == group.comm_shared.stats.sends
    return [counts[rank] for rank in range(size)]


@pytest.mark.parametrize("kind", sorted(TABLES))
@pytest.mark.parametrize("size", [2, 3, 5, 8, 13])
def test_send_counts_match_the_generator_path(kind, size):
    for root in ((0, size - 1) if kind in ROOTED else (0,)):
        table = TABLES[kind](size, root)
        assert [len(dests) for dests in table.dests] == \
            generator_sends(kind, size, root), (kind, size, root)
