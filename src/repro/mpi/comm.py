"""Communicators, point-to-point and collective operations, spawn/merge.

Execution model
---------------
Every MPI rank is a simulation :class:`~repro.simulate.Process` driving a
generator.  Communication calls are generators too, invoked with
``yield from``::

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(data, dest=1, tag=3)
        else:
            data = yield from comm.recv(source=0, tag=3)

Point-to-point semantics: a send performs the wire transfer (occupying
the sender's tx and receiver's rx NIC engines — contention is real) and
then deposits an envelope into the receiver's mailbox; a receive blocks
until a matching envelope exists.  Sends therefore never block on an
unposted receive (eager/buffered semantics), which is the common regime
for MPICH2-era redistribution traffic and keeps SPMD code deadlock-free.

Collectives are implemented from point-to-point with the textbook
algorithms (binomial broadcast/reduce, ring allgather, pairwise
exchange all-to-all, dissemination barrier), each written once as an op
table in :mod:`repro.mpi.fastcoll` and run here as real messages: the
generator path, the independent *timing* reference of the fast path.

Dynamic process management mirrors MPI-2: ``World.spawn_multiple``
starts child ranks and returns an :class:`Intercomm`, whose ``merge()``
yields a new intracommunicator with parents first (low group) and
children after — exactly the structure ReSHAPE's resizing library relies
on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence

from repro.cluster.machine import Machine
from repro.mpi.datatypes import HEADER_BYTES, Phantom, payload_nbytes
from repro.mpi.errors import MPIError
from repro.mpi.fastcoll import (
    ACC,
    COMBINE,
    ITEMS,
    RECV,
    REPLACE,
    SEND,
    STORE,
    TABLES,
    FastCollState,
    build_state as _build_fastcoll_state,
)
from repro.mpi.fastp2p import NetReplay, net_replay
from repro.mpi.ops import ReduceOp, SUM
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.simulate import Environment, Event, Process, Store

#: Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1

#: Tags at or above this value are reserved for collective internals.
_COLL_TAG_BASE = 1 << 24

_comm_ids = itertools.count()


@dataclass(frozen=True)
class Envelope:
    """An in-flight message as seen by the matching logic."""

    source: int
    tag: int
    payload: Any
    nbytes: int


@dataclass
class CommStats:
    """Per-communicator traffic accounting."""

    sends: int = 0
    bytes_sent: int = 0
    collectives: int = 0


#: Sentinel: fast-path eligibility not yet computed for a communicator.
_FASTCOLL_UNSET = object()


class _CommShared:
    """State shared by all rank views of one communicator."""

    def __init__(self, world: "World", processors: Sequence[int]):
        if len(set(processors)) != len(processors):
            raise MPIError("duplicate processors in communicator")
        self.world = world
        self.processors = list(processors)
        self.mailboxes = [Store(world.env) for _ in processors]
        self.id = next(_comm_ids)
        self.stats = CommStats()
        #: Node index per rank (hot on the p2p fast path).
        self.nodes = [world.machine.node_of(p) for p in self.processors]
        #: Structural fast-path eligibility (lazy; see repro.mpi.fastcoll).
        self._fastcoll_state: Any = _FASTCOLL_UNSET
        #: In-flight fast-path rendezvous, keyed by collective tag.
        self._fast_calls: dict[int, Any] = {}

    @property
    def size(self) -> int:
        return len(self.processors)

    def fast_state(self) -> Optional[FastCollState]:
        state = self._fastcoll_state
        if state is _FASTCOLL_UNSET:
            state = self._fastcoll_state = _build_fastcoll_state(self)
        return state


class Comm:
    """A rank's view of a communicator.

    Mirrors an MPI intracommunicator: ``rank``/``size``, p2p, collectives,
    subset creation.  All communicating methods are generators.
    """

    def __init__(self, shared: _CommShared, rank: int):
        if not 0 <= rank < shared.size:
            raise MPIError(f"rank {rank} out of range for size {shared.size}")
        self._shared = shared
        self.rank = rank
        self._coll_seq = 0

    # -- basic introspection ------------------------------------------------
    @property
    def size(self) -> int:
        return self._shared.size

    @property
    def processors(self) -> list[int]:
        """Global processor ids, indexed by rank."""
        return self._shared.processors

    @property
    def world(self) -> "World":
        return self._shared.world

    @property
    def env(self) -> Environment:
        return self._shared.world.env

    @property
    def stats(self) -> CommStats:
        return self._shared.stats

    def node_of(self, rank: int) -> int:
        return self._shared.nodes[rank]

    def view(self, rank: int) -> "Comm":
        """Another rank's view of this same communicator."""
        return Comm(self._shared, rank)

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"{what} rank {rank} out of range "
                           f"(size {self.size})")

    # -- point-to-point -------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> Generator:
        """Blocking (buffered) send: returns once the wire transfer is done."""
        self._check_rank(dest, "destination")
        if tag < 0:
            raise MPIError("application tags must be non-negative")
        yield from self._send_raw(payload, dest, tag)

    def _fastp2p(self) -> Optional[NetReplay]:
        """The point-to-point fast path's network replay, or None.

        Point-to-point eligibility is sender-local: the receiver only
        ever sees a mailbox envelope, so *any* payload can ride the
        replay — the event chain it replaces carries no information
        beyond the byte count.  Declined only when the world switch is
        off.
        """
        world = self._shared.world
        if not world.fastpath:
            return None
        return net_replay(world.machine.network)

    def _fast_send_event(self, replay: NetReplay, payload: Any, dest: int,
                         tag: int, nbytes: int) -> Event:
        """Register one fast-path send; the returned event fires at the
        deposit time with the envelope already in the mailbox (the
        deposit callback precedes any waiter's resume — the intra-instant
        ordering the equivalence contract relies on)."""
        shared = self._shared
        nodes = shared.nodes
        ev = replay.send_event(nodes[self.rank], nodes[dest], nbytes)
        store = shared.mailboxes[dest]
        envelope = Envelope(source=self.rank, tag=tag, payload=payload,
                            nbytes=nbytes)
        assert ev.callbacks is not None
        ev.callbacks.append(lambda _e: store.deposit(envelope))
        return ev

    def _send_raw(self, payload: Any, dest: int, tag: int) -> Generator:
        nbytes = payload_nbytes(payload)
        self._shared.stats.sends += 1
        self._shared.stats.bytes_sent += nbytes
        replay = self._fastp2p()
        if replay is not None:
            yield self._fast_send_event(replay, payload, dest, tag, nbytes)
            return
        src_node = self.node_of(self.rank)
        dst_node = self.node_of(dest)
        yield from self.world.machine.network.transfer(
            src_node, dst_node, nbytes + HEADER_BYTES)
        yield self._shared.mailboxes[dest].put(
            Envelope(source=self.rank, tag=tag, payload=payload,
                     nbytes=nbytes))

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; returns a :class:`Request`."""
        self._check_rank(dest, "destination")
        replay = self._fastp2p()
        if replay is not None:
            nbytes = payload_nbytes(payload)
            self._shared.stats.sends += 1
            self._shared.stats.bytes_sent += nbytes
            ev = self._fast_send_event(replay, payload, dest, tag, nbytes)
            return Request(self.env, ev)
        proc = self.env.process(self._send_raw(payload, dest, tag),
                                name=f"isend:{self.rank}->{dest}")
        return Request(self.env, proc)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns the payload."""
        payload, _status = yield from self.recv_status(source, tag)
        return payload

    def recv_status(self, source: int = ANY_SOURCE,
                    tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns ``(payload, Status)``."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")

        def matches(envelope: Envelope) -> bool:
            return ((source == ANY_SOURCE or envelope.source == source) and
                    (tag == ANY_TAG or envelope.tag == tag))

        envelope = yield self._shared.mailboxes[self.rank].get(matches)
        status = Status(source=envelope.source, tag=envelope.tag,
                        nbytes=envelope.nbytes)
        return envelope.payload, status

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``wait()`` returns the payload."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        if self._fastp2p() is not None:
            # No driver process: the filtered mailbox get *is* the
            # operation; it fires with the matching envelope at deposit
            # time, exactly when the generator path's recv would return.
            def matches(envelope: Envelope) -> bool:
                return ((source == ANY_SOURCE or
                         envelope.source == source) and
                        (tag == ANY_TAG or envelope.tag == tag))

            get_ev = self._shared.mailboxes[self.rank].get(matches)
            return Request(self.env, get_ev,
                           transform=lambda envelope: envelope.payload)
        proc = self.env.process(self.recv(source, tag),
                                name=f"irecv:{self.rank}")
        return Request(self.env, proc)

    def sendrecv(self, payload: Any, dest: int, source: int,
                 send_tag: int = 0, recv_tag: int = ANY_TAG) -> Generator:
        """Simultaneous send and receive; returns the received payload.

        Both operations are posted before either is waited on, so
        head-to-head exchanges (every rank of a ring or a pair calling
        sendrecv at once) complete regardless of posting order — the
        guarantee ``MPI_Sendrecv`` provides.
        """
        send_req = self.isend(payload, dest, send_tag)
        recv_req = self.irecv(source, recv_tag)
        received = yield from recv_req.wait()
        yield from send_req.wait()
        return received

    # -- collective helpers -------------------------------------------------------
    def _next_coll_tag(self) -> int:
        """Fresh tag for one collective call (SPMD callers stay in sync)."""
        tag = _COLL_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        self._shared.stats.collectives += 1
        return tag

    def _fastcoll(self) -> Optional[FastCollState]:
        """The phantom fast path's eligibility record, or None.

        Structural conditions (distinct nodes, backplane headroom) are
        cached on the shared state; the world switch is re-checked per
        call so tests and ablations can toggle it.  Payload-type gating
        is the caller's job.
        """
        shared = self._shared
        if not shared.world.fastpath:
            return None
        return shared.fast_state()

    def _collective(self, kind: str, payload: Any, root: int = 0,
                    op: Optional[ReduceOp] = None,
                    fast_ok: bool = True) -> Generator:
        """Run this rank's side of one collective; returns its result.

        Joins the phantom fast path's rendezvous when ``fast_ok`` (the
        caller's payload gate) and the world allow it; otherwise runs the
        rank's program in the op table ``TABLES[kind]`` as real messages.
        """
        tag = self._next_coll_tag()
        size = self.size
        if fast_ok and size > 1:
            fast = self._fastcoll()
            if fast is not None:
                result = yield fast.live_call(kind, tag, root=root,
                                              op=op).join(self.rank, payload)
                return result
        table = TABLES[kind](size, root)
        rank = self.rank
        regs = [payload, None]
        own = table.own[rank]
        if own is not None:
            index, part = own
            items = regs[ITEMS] = [None] * size
            items[index] = payload if part is None else payload[part]
        req: Optional[Request] = None
        for step in table.ops[rank]:
            code = step[0]
            if code == SEND:
                _code, dest, blocking, frm, index = step
                value = None if frm is None else regs[frm]
                if index is not None:
                    value = value[index]
                if blocking:
                    yield from self._send_raw(value, dest, tag)
                else:
                    req = self.isend(value, dest, tag)
            elif code == RECV:
                _code, source, into, index, _bump = step
                got, status = yield from self.recv_status(source, tag)
                if into == REPLACE:
                    regs[ACC] = got
                elif into == COMBINE:
                    regs[ACC] = op(got, regs[ACC])
                elif into == STORE:
                    regs[ITEMS][status.source if index is None
                                else index] = got
            else:                                   # WAIT
                yield from req.wait()
        out = table.out[rank]
        return None if out is None else regs[out]

    # -- collectives --------------------------------------------------------------
    def barrier(self) -> Generator:
        """Dissemination barrier: ceil(log2(P)) rounds of tiny messages."""
        yield from self._collective("barrier", None)

    def bcast(self, payload: Any, root: int = 0) -> Generator:
        """Binomial-tree broadcast; every rank returns the payload."""
        self._check_rank(root, "root")
        result = yield from self._collective("bcast", payload, root,
                                             fast_ok=False)
        return result

    def reduce(self, payload: Any, op: ReduceOp = SUM,
               root: int = 0) -> Generator:
        """Binomial-tree reduction; returns the result at root, None elsewhere.

        Each rank combines a child's partial as ``op(received, running)``."""
        self._check_rank(root, "root")
        result = yield from self._collective(
            "reduce", payload, root, op, isinstance(payload, Phantom))
        return result

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Generator:
        """Reduce to rank 0 then broadcast (cost shape of MPICH's default)."""
        result = yield from self.reduce(payload, op, root=0)
        result = yield from self.bcast(result, root=0)
        return result

    def gather(self, payload: Any, root: int = 0) -> Generator:
        """Gather payloads; returns the rank-ordered list at root, else None."""
        self._check_rank(root, "root")
        result = yield from self._collective(
            "gather", payload, root, fast_ok=isinstance(payload, Phantom))
        return result

    def allgather(self, payload: Any) -> Generator:
        """Ring allgather: P-1 steps, each shifting one block around."""
        result = yield from self._collective(
            "allgather", payload, fast_ok=isinstance(payload, Phantom))
        return result

    def scatter(self, payloads: Optional[Sequence[Any]],
                root: int = 0) -> Generator:
        """Scatter a list from root; every rank returns its element."""
        self._check_rank(root, "root")
        tag = self._next_coll_tag()
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise MPIError("scatter needs one payload per rank at root")
            requests = []
            for dest, item in enumerate(payloads):
                if dest == root:
                    continue
                requests.append(self.isend(item, dest, tag))
            for req in requests:
                yield from req.wait()
            return payloads[root]
        item = yield from self.recv(root, tag)
        return item

    def alltoall(self, payloads: Sequence[Any]) -> Generator:
        """Personalized all-to-all via pairwise exchange.

        ``payloads[d]`` goes to rank ``d``; returns a list indexed by
        source rank.  Step ``s`` pairs rank ``r`` with ``r+s`` (send) and
        ``r-s`` (receive), so each step is a permutation — contention free
        on the simulated NICs.
        """
        if len(payloads) != self.size:
            raise MPIError("alltoall needs one payload per rank")
        result = yield from self._collective(
            "alltoall", list(payloads),
            fast_ok=all(isinstance(p, Phantom) for p in payloads))
        return result

    # -- communicator management -----------------------------------------------
    def create_sub(self, ranks: Sequence[int]) -> Generator:
        """Collectively build a sub-communicator of ``ranks``.

        Every rank of the parent must call this with the same list.  The
        lowest listed rank builds the shared state and broadcasts it;
        members return their new view, non-members return None.
        """
        ranks = list(ranks)
        if not ranks:
            raise MPIError("empty sub-communicator")
        for r in ranks:
            self._check_rank(r, "member")
        if len(set(ranks)) != len(ranks):
            raise MPIError("duplicate ranks in sub-communicator")
        leader = ranks[0]
        shared: Optional[_CommShared] = None
        if self.rank == leader:
            shared = _CommShared(
                self.world, [self._shared.processors[r] for r in ranks])
        shared = yield from self.bcast(shared, root=leader)
        if self.rank in ranks:
            return Comm(shared, ranks.index(self.rank))
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Comm id={self._shared.id} rank={self.rank}/"
                f"{self.size}>")


class Intercomm:
    """Parent-side handle linking a parent communicator to spawned children.

    Mirrors the intercommunicator returned by ``MPI_Comm_spawn_multiple``:
    ``merge()`` produces the intracommunicator with the parent group's
    ranks first (``high=False`` on the parent side) and children after.
    """

    def __init__(self, parent_shared: _CommShared, merged: _CommShared,
                 child_count: int):
        self._parent_shared = parent_shared
        self._merged = merged
        self.child_count = child_count

    def merge(self, parent_rank: int) -> Comm:
        """The merged intracommunicator view for ``parent_rank``."""
        return Comm(self._merged, parent_rank)


@dataclass
class LaunchedGroup:
    """Handle to a launched set of rank processes."""

    comm_shared: _CommShared
    processes: list[Process] = field(default_factory=list)

    def view(self, rank: int) -> Comm:
        return Comm(self.comm_shared, rank)


class World:
    """Process manager binding the MPI layer to a machine.

    Launches SPMD groups, spawns children at runtime (the MPI-2 dynamic
    process management ReSHAPE uses to grow an application) and accounts
    for process startup latency.
    """

    def __init__(self, env: Environment, machine: Machine, *,
                 launch_overhead: float = 0.1,
                 spawn_overhead: float = 0.25,
                 fastpath: bool = True):
        self.env = env
        self.machine = machine
        #: Per-group startup cost at job launch (scheduler/job-startup path).
        self.launch_overhead = launch_overhead
        #: Cost of MPI_Comm_spawn_multiple (process creation + connect).
        self.spawn_overhead = spawn_overhead
        #: Switch for the phantom fast paths (repro.mpi.fastp2p and
        #: repro.mpi.fastcoll).  Off, every transfer and collective runs
        #: on the generator path — the reference the equivalence tests
        #: compare against.  Must not change while traffic is in flight.
        self.fastpath = fastpath

    def launch(self, main: Callable[..., Generator],
               processors: Sequence[int], args: tuple = (),
               name: str = "app", delay: float = 0.0) -> LaunchedGroup:
        """Start ``main(comm, *args)`` on every rank of a new communicator."""
        if not processors:
            raise MPIError("cannot launch on zero processors")
        shared = _CommShared(self, processors)
        group = LaunchedGroup(comm_shared=shared)
        for rank in range(len(processors)):
            comm = Comm(shared, rank)
            gen = self._delayed_main(main, comm, args,
                                     delay + self.launch_overhead)
            group.processes.append(
                self.env.process(gen, name=f"{name}[{rank}]"))
        return group

    def _delayed_main(self, main: Callable[..., Generator], comm: Comm,
                      args: tuple, delay: float) -> Generator:
        if delay > 0:
            yield self.env.sleep(delay)
        result = yield from main(comm, *args)
        return result

    def spawn_multiple(self, entry: Callable[..., Generator],
                       new_processors: Sequence[int],
                       parent: Comm, args: tuple = (),
                       name: str = "spawned") -> Intercomm:
        """Spawn children and pre-build the merged communicator.

        Called by the parent group's root (collectivity is the resizing
        library's responsibility, as in the paper where the library wraps
        the MPI-2 call).  Children run ``entry(merged_comm_view, *args)``
        after ``spawn_overhead`` seconds; parents receive the
        :class:`Intercomm` and call :meth:`Intercomm.merge`.
        """
        if not new_processors:
            raise MPIError("spawn of zero processes")
        parent_shared = parent._shared
        overlap = set(parent_shared.processors) & set(new_processors)
        if overlap:
            raise MPIError(f"processors {sorted(overlap)} already in "
                           "the parent communicator")
        merged = _CommShared(
            self, parent_shared.processors + list(new_processors))
        for i in range(len(new_processors)):
            child_rank = parent_shared.size + i
            view = Comm(merged, child_rank)
            gen = self._delayed_main(entry, view, args, self.spawn_overhead)
            self.env.process(gen, name=f"{name}[{child_rank}]")
        return Intercomm(parent_shared, merged, len(new_processors))
