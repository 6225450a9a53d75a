"""Discrete-event simulation engine.

A small, deterministic, generator-coroutine discrete-event kernel in the
style of SimPy.  Every active entity in the reproduction — MPI ranks,
scheduler threads, NIC transfers, disks — is a :class:`Process` driving a
Python generator.  Processes interact by yielding *events*:

* :class:`Timeout` — resume after simulated seconds elapse.
* :class:`Event` — a bare one-shot event another process can ``succeed``.
* :class:`Process` — a running process; yield it to wait for its end.
* ``Store.get()`` / ``Store.put()`` — FIFO channels.
* ``Resource.request()`` — mutual exclusion (e.g. a NIC).

The engine is single-threaded and fully deterministic: ties in the event
queue break on a monotone sequence number, so identical inputs always give
identical trajectories.
"""

from repro.simulate.calendar import (
    CalendarEventQueue,
    HeapEventQueue,
    make_event_queue,
)
from repro.simulate.engine import (
    HANDLER_BATCH,
    HANDLER_EVENT,
    HANDLER_RESUME,
    Batch,
    Environment,
    Event,
    Process,
    SimulationError,
    Sleep,
    Timeout,
)
from repro.simulate.resources import Resource, Store

__all__ = [
    "Batch",
    "CalendarEventQueue",
    "Environment",
    "Event",
    "HANDLER_BATCH",
    "HANDLER_EVENT",
    "HANDLER_RESUME",
    "HeapEventQueue",
    "Process",
    "Resource",
    "SimulationError",
    "Sleep",
    "Store",
    "Timeout",
    "make_event_queue",
]
