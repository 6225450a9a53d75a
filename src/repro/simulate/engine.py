"""Core discrete-event kernel: environment, packed records, processes.

The queue stores *packed records* — ``(time, priority, seq, handler_id,
arg)`` tuples — not event objects.  Popping a record jumps through a
small per-:class:`Environment` handler table: ``handler_id`` 0 fires the
:class:`Event` object in ``arg`` (the rich layer), any other
id calls a registered handler function with ``arg``.  The common case —
a one-shot timed wakeup — therefore never allocates an ``Event`` or a
callback list: :meth:`Environment.call_at` books a bare record, and a
process that yields :meth:`Environment.sleep` is resumed through the
builtin process-resume handler.

Rich ``Event`` / :class:`Process` waiting remains as a thin layer on
top: an Event is a value holder plus a callback list, and scheduling one
just packs a record with handler id 0.  The queue itself lives behind
the small interface in :mod:`repro.simulate.calendar`: a slotted
calendar queue by default, with the seed binary heap available as
``Environment(kernel="heap")`` for ablation.

Determinism contract: records are totally ordered by ``(time, priority,
seq)`` where ``seq`` is the monotone tie counter ``Environment._seq``.
Every scheduling path (``schedule``, ``schedule_at``, ``wake_at``,
``call_at``, ``call_later``, ``deliver``, ``batch_at``, a yielded
``Sleep``) increments it exactly once at the moment its record is
pushed; nothing else may touch the queue, or tie ordering (and with it
determinism) breaks.  The handler id and argument are never compared —
``seq`` is unique, so comparisons stop at the third field.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.simulate.calendar import make_event_queue

#: Priority classes for simultaneous events.  URGENT fires before NORMAL at
#: the same timestamp; used by the kernel to start processes.
URGENT = 0
NORMAL = 1

#: Builtin handler-table positions, identical in every Environment
#: (asserted at construction).  0 is the Event-object dispatcher and is
#: inlined in the run loop; the others are module-level functions below.
HANDLER_EVENT = 0
HANDLER_RESUME = 1
HANDLER_BATCH = 2


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


PENDING = object()  # sentinel: event value not yet decided


class Event:
    """A one-shot occurrence that processes can wait for.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled to fire at some time), and *processed* (callbacks have run).
    Waiting is expressed by yielding the event from a process generator.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._scheduled = False
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._value = exception
        self._ok = False
        self.env.schedule(self, delay=delay)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Sleep:
    """A packed one-shot timed wakeup a process can yield.

    The flat replacement for :class:`Timeout` on the hot path: a process
    that yields a Sleep is resumed by a single packed
    ``(when, NORMAL, seq, HANDLER_RESUME, (process, value))`` record —
    no Event object, no callback list.  A Sleep is *not* an Event: it
    cannot be shared or waited on by anyone but the yielding process.
    Use :meth:`Environment.timeout` where Event semantics are needed.

    Created via :meth:`Environment.sleep`; the wakeup time is fixed at
    creation (:meth:`Environment.wake_at` is the absolute-time Event).
    """

    __slots__ = ("when", "value")

    def __init__(self, when: float, value: Any = None):
        self.when = when
        self.value = value


class Timeout(Event):
    """Event that fires automatically ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        self.env.schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._value = None
        self._ok = True
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running generator coroutine.

    A process *is* an event: it fires when the generator returns (value =
    return value) or raises (failure).  Other processes can therefore wait
    on it.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        env._live_processes += 1
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    # -- generator driving --------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        self._advance(event._ok, event._value)

    def _advance(self, ok: bool, value: Any) -> None:
        """Advance the generator with a bare (ok, value) outcome."""
        env = self.env
        env._active_proc = self
        while True:
            try:
                if ok:
                    next_ev = self._generator.send(value)
                else:
                    if isinstance(value, BaseException):
                        next_ev = self._generator.throw(value)
                    else:  # pragma: no cover - defensive
                        next_ev = self._generator.throw(
                            SimulationError(repr(value)))
            except StopIteration as stop:
                env._live_processes -= 1
                self._value = stop.value
                self._ok = True
                env.schedule(self)
                break
            except BaseException as err:
                env._live_processes -= 1
                self._value = err
                self._ok = False
                if self.callbacks:
                    env.schedule(self)
                else:
                    # Nobody is waiting: surface the crash instead of
                    # swallowing it silently.
                    env._active_proc = None
                    raise
                break

            if type(next_ev) is Sleep:
                # Packed timed wakeup: one record, no Event machinery.
                env._seq += 1
                env._queue.push(next_ev.when, NORMAL, env._seq,
                                HANDLER_RESUME, (self, next_ev.value))
                break
            if not isinstance(next_ev, Event):
                msg = (f"process {self.name!r} yielded {next_ev!r}; "
                       "processes must yield Event or Sleep instances")
                self._generator.throw(SimulationError(msg))
                continue
            if next_ev.env is not env:
                raise SimulationError("event belongs to a different Environment")

            if next_ev._processed:
                # Already fired and delivered: re-deliver its value now.
                ok = next_ev._ok
                value = next_ev._value
                continue
            # Wait for it.
            assert next_ev.callbacks is not None
            next_ev.callbacks.append(self._resume)
            break
        env._active_proc = None


class Batch:
    """Events delivered together by one packed queue record.

    The batched-completion primitive behind the phantom fast paths: a
    P-rank collective resolves all P per-rank completion events through
    a single ``(when, priority, seq, HANDLER_BATCH, batch)`` record
    instead of P separate ones.  Members are resolved (value assigned)
    when added and delivered — callbacks run, ``processed`` becomes true
    — when the record pops, in the order they were added.

    Created via :meth:`Environment.batch_at`; members may be added any
    time before the batch fires (``fired`` flips when it has).
    """

    __slots__ = ("env", "members", "fired")

    def __init__(self, env: "Environment"):
        self.env = env
        self.members: list[Event] = []
        self.fired = False

    def add(self, event: Event, value: Any = None, ok: bool = True) -> None:
        """Attach ``event`` as a member resolving to ``value``."""
        if event.triggered or event._scheduled:
            raise SimulationError(f"{event!r} already triggered/scheduled")
        if event.env is not self.env:
            raise SimulationError("event belongs to a different Environment")
        event._value = value
        event._ok = ok
        # The batch owns delivery; nothing else may schedule the member.
        event._scheduled = True
        self.members.append(event)


def _resume_sleeping(arg) -> None:
    """HANDLER_RESUME: wake the process sleeping on a packed record."""
    process, value = arg
    process._advance(True, value)


def _fire_batch(batch: Batch) -> None:
    """HANDLER_BATCH: deliver every member of a :class:`Batch`."""
    batch.fired = True
    for member in batch.members:
        callbacks = member.callbacks
        member.callbacks = None
        member._processed = True
        if callbacks:
            for cb in callbacks:
                cb(member)


class Environment:
    """The simulation world: clock + packed event queue + handler table."""

    def __init__(self, initial_time: float = 0.0, *,
                 kernel: str = "calendar"):
        self._now = float(initial_time)
        try:
            self._queue = make_event_queue(kernel)
        except ValueError as err:
            raise SimulationError(str(err)) from None
        self.kernel = kernel
        self._seq = 0
        self._active_proc: Optional[Process] = None
        #: Processes started and not yet finished (read by closed-form
        #: walks to prove they are alone in the simulation).
        self._live_processes = 0
        #: The handler table: position 0 is the Event-object dispatcher
        #: (inlined in the run loop, never called through the table);
        #: builtin handlers follow at fixed positions, then whatever the
        #: session registers.  The table only ever grows — ids stay
        #: valid for the Environment's lifetime.
        self._handlers: list[Any] = [None]
        self._handler_ids: dict[Any, int] = {}
        assert self.register_handler(_resume_sleeping) == HANDLER_RESUME
        assert self.register_handler(_fire_batch) == HANDLER_BATCH

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- handler table ------------------------------------------------------
    def register_handler(self, fn: Callable[[Any], None]) -> int:
        """Append ``fn`` to the handler table; returns its id.

        ``fn`` is called as ``fn(arg)`` when a record scheduled with its
        id pops.  Register once and reuse the id — the table never
        shrinks, so per-call registration would leak entries (use
        :meth:`handler_id` for idempotent registration).
        """
        self._handlers.append(fn)
        return len(self._handlers) - 1

    def handler_id(self, fn: Callable[[Any], None]) -> int:
        """Idempotent :meth:`register_handler`: one table entry per
        function, cached by identity.

        The pattern for classes with many short-lived instances (e.g.
        one per collective call): register the *unbound* method once and
        pass the instance as ``arg``.
        """
        hid = self._handler_ids.get(fn)
        if hid is None:
            hid = self._handler_ids[fn] = self.register_handler(fn)
        return hid

    # -- scheduling ---------------------------------------------------------
    def schedule_entry(self, event: Event, when: float,
                       priority: int) -> None:
        """Queue entry point for Event objects: issue a tie number,
        pack a handler-id-0 record.

        Every Event scheduling path comes through here (``schedule``,
        ``schedule_at``, ``wake_at`` all do) so the monotone ``seq``
        counter covers the whole queue — an entry pushed around it could
        tie-break nondeterministically.
        """
        if when != when:  # NaN would silently corrupt the queue order
            raise SimulationError("event time is NaN")
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        self._queue.push(when, priority, self._seq, HANDLER_EVENT, event)

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Enqueue ``event`` to fire at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.schedule_entry(event, self._now + delay, priority)

    def schedule_at(self, event: Event, when: float,
                    priority: int = NORMAL) -> None:
        """Enqueue ``event`` to fire at the absolute time ``when``.

        The phantom fast path computes completion times as absolute
        clocks; scheduling them as ``now + (when - now)`` would lose the
        last bit to float association, so this bypasses the delay form.
        """
        if when < self._now:
            raise SimulationError(f"schedule_at({when}) is in the past "
                                  f"(now {self._now})")
        self.schedule_entry(event, when, priority)

    def call_at(self, when: float, handler_id: int, arg: Any = None,
                priority: int = NORMAL) -> None:
        """Book a bare packed record: at ``when``, call
        ``handlers[handler_id](arg)``.

        The object-free one-shot wakeup — no Event, no callback list,
        one tuple in the queue.  ``handler_id`` comes from
        :meth:`register_handler` / :meth:`handler_id`.
        """
        if when != when:
            raise SimulationError("event time is NaN")
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past "
                                  f"(now {self._now})")
        self._seq += 1
        self._queue.push(when, priority, self._seq, handler_id, arg)

    def call_later(self, delay: float, handler_id: int, arg: Any = None,
                   priority: int = NORMAL) -> None:
        """Relative-time :meth:`call_at`: fire ``delay`` seconds from now."""
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        self._seq += 1
        self._queue.push(self._now + delay, priority, self._seq,
                         handler_id, arg)

    def deliver(self, event: Event, value: Any = None, ok: bool = True,
                priority: int = NORMAL) -> None:
        """Resolve ``event`` and book its firing at the current instant.

        The packed grant path for Store/Resource: one call replacing
        ``succeed()`` → ``schedule()`` → ``schedule_entry()``, producing
        the identical record at the identical ``(time, priority, seq)``
        position.
        """
        if event._value is not PENDING or event._scheduled:
            raise SimulationError(f"{event!r} already triggered")
        event._value = value
        event._ok = ok
        event._scheduled = True
        self._seq += 1
        self._queue.push(self._now, priority, self._seq, HANDLER_EVENT,
                         event)

    def wake_at(self, when: float, value: Any = None) -> Event:
        """An event that fires at the absolute time ``when``."""
        ev = Event(self)
        ev._value = value
        ev._ok = True
        self.schedule_at(ev, when)
        return ev

    def sleep(self, delay: float, value: Any = None) -> Sleep:
        """A packed timed wakeup for the yielding process (relative).

        ``yield env.sleep(d)`` is the flat form of
        ``yield env.timeout(d)``: same clock advance, no Event
        allocation.  Only the yielding process can consume it.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"negative sleep delay {delay!r}")
        return Sleep(self._now + delay, value)

    def batch_at(self, when: float, priority: int = NORMAL) -> Batch:
        """A :class:`Batch` whose members deliver together at ``when``.

        One packed record regardless of member count; members may be
        added until the record pops.
        """
        batch = Batch(self)
        self.call_at(when, HANDLER_BATCH, batch, priority)
        return batch

    def schedule_many(self, completions, priority: int = NORMAL
                      ) -> list[Batch]:
        """Schedule many ``(event, value, when)`` completions at once.

        ``when`` is an absolute simulated time.  Completions sharing a
        time are grouped into one :class:`Batch`, so N simultaneous
        logical completions cost one packed record.  Within a group,
        events fire in input order.  Returns the batches (one per
        distinct time).
        """
        groups: dict[float, Batch] = {}
        for event, value, when in completions:
            batch = groups.get(when)
            if batch is None:
                batch = groups[when] = self.batch_at(when, priority)
            batch.add(event, value)
        return list(groups.values())

    # -- factories ------------------------------------------------------------
    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    # -- main loop ------------------------------------------------------------
    def step(self) -> None:
        """Pop and dispatch the next record in the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty queue")
        when, _prio, _seq, hid, arg = self._queue.pop()
        if when < self._now:  # pragma: no cover - queue guarantees order
            raise SimulationError("time went backwards")
        self._now = when
        if hid:
            self._handlers[hid](arg)
            return
        callbacks = arg.callbacks
        arg.callbacks = None  # new waiters see a processed event
        arg._processed = True
        assert callbacks is not None
        for cb in callbacks:
            cb(arg)

    def pending(self) -> list:
        """The packed records still queued, in no particular order."""
        return self._queue.entries()

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._queue.peek_when()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a number (absolute simulated time), an
        :class:`Event` (run until it fires; returns its value), or ``None``
        (run to exhaustion).
        """
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not self._queue:
                    raise SimulationError(
                        "queue drained before the awaited event fired")
                self.step()
            if not stop._ok and isinstance(stop._value, BaseException):
                raise stop._value
            return stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline != deadline:
            raise SimulationError("until is NaN")
        if deadline != float("inf") and deadline < self._now:
            raise SimulationError(f"until={deadline} is in the past")
        # Hot loop: one pop_due call per record (a fused peek + pop),
        # then one table jump — Event firing (handler id 0) is inlined
        # to keep the common composition path flat too.
        pop_due = self._queue.pop_due
        handlers = self._handlers
        while True:
            entry = pop_due(deadline)
            if entry is None:
                break
            self._now = entry[0]
            hid = entry[3]
            if hid:
                handlers[hid](entry[4])
                continue
            event = entry[4]
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            assert callbacks is not None
            for cb in callbacks:
                cb(event)
        if deadline != float("inf"):
            self._now = deadline
        return None
