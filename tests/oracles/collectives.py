"""Each collective algorithm restated as the textbook loops.

``repro.mpi.fastcoll.TABLES`` is the one place ``src/`` writes a
collective's communication pattern; everything that runs a collective
reads it.  These loops are the pattern written the other way — the
mask and ring arithmetic the generator collectives used before they
read the tables — so a wrong table shows up as a disagreement.

Each function returns, per rank, the ordered ``(op, peer, blocking,
index)`` steps it runs:

* ``("send", dest, blocking, index)`` — a blocking send, or an isend
  (``blocking`` False) its next ``wait`` completes; ``index`` names the
  element of the rank's list that is sent (None: its whole value);
* ``("recv", source, True, index)`` — a receive from ``source`` (or
  ``ANY_SOURCE``); ``index`` is the slot of the rank's result list it
  fills (None: not a list slot, or the sender's rank for
  ``ANY_SOURCE``);
* ``("wait", None, True, None)`` — wait for the outstanding isend.
"""

from __future__ import annotations

import math

ANY_SOURCE = -1
WAIT = ("wait", None, True, None)


def _exchange(dest, send_index, source, recv_index):
    """One isend, recv, wait step of a ring or pairwise exchange."""
    return [("send", dest, False, send_index),
            ("recv", source, True, recv_index), WAIT]


def barrier(size, root=0):
    """Dissemination: round ``k`` sends to ``rank + 2**k`` and receives
    from ``rank - 2**k``."""
    rounds = math.ceil(math.log2(size))
    programs = []
    for rank in range(size):
        prog = []
        for k in range(rounds):
            dist = 1 << k
            prog += _exchange((rank + dist) % size, None,
                              (rank - dist) % size, None)
        programs.append(prog)
    return programs


def bcast_oracle(rank, root, size):
    """The binomial broadcast's mask loop: the parent and the children
    in send order."""
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


def bcast(size, root=0):
    """Binomial tree: receive from the parent, then forward to each
    child with a blocking send."""
    programs = []
    for rank in range(size):
        parent, children = bcast_oracle(rank, root, size)
        prog = [] if parent is None else [("recv", parent, True, None)]
        prog += [("send", child, True, None) for child in children]
        programs.append(prog)
    return programs


def reduce(size, root=0):
    """Binomial tree: combine each child's partial, lowest mask first,
    then send the running value to the parent (blocking)."""
    programs = []
    for rank in range(size):
        relrank = (rank - root) % size
        prog = []
        mask = 1
        while mask < size:
            if relrank & mask == 0:
                peer = relrank | mask
                if peer < size:
                    prog.append(("recv", (peer + root) % size, True, None))
            else:
                prog.append(("send", ((relrank & ~mask) + root) % size,
                             True, None))
                break
            mask <<= 1
        programs.append(prog)
    return programs


def gather(size, root=0):
    """Linear: every other rank sends to the root (blocking), which
    receives ``size - 1`` times from ``ANY_SOURCE``."""
    return [[("recv", ANY_SOURCE, True, None)] * (size - 1) if rank == root
            else [("send", root, True, None)] for rank in range(size)]


def allgather(size, root=0):
    """Ring: step ``s`` passes item ``rank - s`` to the right and stores
    item ``rank - s - 1`` from the left."""
    programs = []
    for rank in range(size):
        prog = []
        for step in range(size - 1):
            prog += _exchange((rank + 1) % size, (rank - step) % size,
                              (rank - 1) % size, (rank - step - 1) % size)
        programs.append(prog)
    return programs


def alltoall(size, root=0):
    """Pairwise exchange: step ``s`` sends element ``rank + s`` there
    and stores what ``rank - s`` sends at its rank."""
    programs = []
    for rank in range(size):
        prog = []
        for step in range(1, size):
            dest = (rank + step) % size
            source = (rank - step) % size
            prog += _exchange(dest, dest, source, source)
        programs.append(prog)
    return programs


#: The oracle of each collective kind, keyed as ``fastcoll.TABLES``.
ORACLES = {"barrier": barrier, "bcast": bcast, "reduce": reduce,
           "gather": gather, "allgather": allgather, "alltoall": alltoall}
