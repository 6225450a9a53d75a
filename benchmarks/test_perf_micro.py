"""Micro-benchmarks of two hot paths that no end-to-end workload isolates.

* **packed dispatch** — bare packed records (``call_at`` + one
  registered handler) through ``Environment.run()`` in a hold model at a
  300k steady population: the event kernel's cost per event with no
  Event objects and no callback lists.
* **schedule build** — the paper's 12000^2 matrix in 100x100 blocks
  resized 2x2 -> 2x3: a cold circulant schedule build against the cached
  lookup that repeated resize points hit.

One size, host timings only: nothing here asserts on a time.  The
performance gate is ``benchmarks/e2e`` under ``BENCHMARK.json``'s
bounds; these numbers say which kernel moved when an end-to-end number
does.  ``pytest.ini`` keeps this file out of the bare tier-1 command, so
it runs only when named (``pytest benchmarks`` or ``pytest
benchmarks/test_perf_micro.py -s``).  It writes
``benchmarks/out/micro.json``, which git ignores.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

from repro.redist.schedule import build_2d_schedule
from repro.redist.tables import cached_2d_schedule
from repro.simulate import Environment

OUT = pathlib.Path(__file__).parent / "out" / "micro.json"

PENDING = 300_000
EXTRA = 300_000
BLOCKS = 120                     # 12000 / 100
OLD, NEW = (2, 2), (2, 3)


def time_packed_dispatch() -> tuple[float, int]:
    """Hold model as packed records: ``(ns/event, events dispatched)``."""
    env = Environment()
    rng = random.Random(2)
    budget = [EXTRA]
    fired = [0]

    def reschedule(_arg):
        fired[0] += 1
        if budget[0] > 0:
            budget[0] -= 1
            env.call_at(env.now + rng.random() * 100.0, hid)

    hid = env.register_handler(reschedule)
    for _ in range(PENDING):
        env.call_at(rng.random() * 100.0, hid)
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / fired[0] * 1e9, fired[0]


def test_micro():
    # Best of three: µs-scale legs on a shared host are noise-bound, and
    # the minimum is the stable estimate of the code's own cost.
    runs = [time_packed_dispatch() for _ in range(3)]
    packed_ns = min(ns for ns, _ in runs)
    assert all(fired == PENDING + EXTRA for _, fired in runs)

    reps = 10
    t0 = time.perf_counter()
    for _ in range(reps):
        cold = build_2d_schedule(BLOCKS, BLOCKS, OLD, NEW)
    cold_s = (time.perf_counter() - t0) / reps
    cached_2d_schedule(BLOCKS, BLOCKS, OLD, NEW)           # prime
    t0 = time.perf_counter()
    for _ in range(reps * 100):
        cached = cached_2d_schedule(BLOCKS, BLOCKS, OLD, NEW)
    cached_s = (time.perf_counter() - t0) / (reps * 100)
    assert cached.messages == cold.messages

    results = {
        "packed_dispatch": {"pending": PENDING, "extra": EXTRA,
                            "ns_per_event": packed_ns,
                            "events_per_sec": 1e9 / packed_ns},
        "schedule_build": {"blocks_per_dim": BLOCKS,
                           "grids": [list(OLD), list(NEW)],
                           "cold_s": cold_s, "cached_s": cached_s},
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"packed dispatch: {packed_ns:.0f} ns/event "
          f"({1e9 / packed_ns:,.0f} events/s, {PENDING:,} pending)")
    print(f"schedule build {BLOCKS}x{BLOCKS} blocks {OLD}->{NEW}: "
          f"cold {cold_s * 1e6:.1f} us, cached {cached_s * 1e6:.2f} us")
