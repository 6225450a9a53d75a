"""SweepRunner: fan a grid of scenarios across worker processes.

The shape follows nengo-mpi's chunk-then-gather: the master splits the
spec list into contiguous chunks, a worker resolves a whole chunk with
the pure :func:`~repro.sweep.resolver.run_scenario` and sends back one
reply, and the master merges the replies into one tabular set.

Guarantees:

* **Deterministic merge order.**  Results come back in *spec order*, no
  matter which worker finished first — a sweep is a pure function of
  its spec list.
* **Chunked, bounded dispatch.**  A first-attempt grid is cut into
  contiguous chunks, about four per worker for tail balance and at
  most 256 specs each.  At most ``max_workers`` chunks are in flight,
  so a chunk starts when it is submitted, and million-cell grids never
  materialize a million pickled futures.
* **Clean exceptions** become ``phase="error"`` results inside the
  worker, with the worker's traceback, and are not retried (they are
  deterministic — retrying would reproduce the failure).
* **Crash containment.**  A worker that dies (segfault, ``os._exit``,
  OOM-kill) kills its whole pool, so every spec of every in-flight
  chunk is a suspect.  Each is retried once, alone on a fresh
  single-worker pool: innocents complete there, and the culprit is
  recorded as ``phase="crash"`` with ``attempts=2`` — and the sweep
  completes.
* **Timeout containment.**  ``timeout=T`` is T seconds per scenario,
  enforced per chunk as ``T * len(chunk)`` from submission.  A chunk
  past its deadline is abandoned (its worker finishes in the
  background and the pool takes no new chunk), and its specs take the
  same isolated retry, where each gets T; only the culprit is recorded
  as ``phase="timeout"``.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.sweep.resolver import run_scenario
from repro.sweep.spec import (
    ScenarioError,
    ScenarioOutcome,
    ScenarioResult,
    ScenarioSpec,
)


#: Chunks per worker in a first-attempt grid, for tail balance.
_CHUNKS_PER_WORKER = 4
#: Upper bound on the specs of one chunk.
_MAX_CHUNK = 256


def _run_chunk(task: Callable[[ScenarioSpec], ScenarioResult],
               specs: Sequence[ScenarioSpec]) -> list[ScenarioOutcome]:
    """Run ``specs`` in order: a worker's unit of work, and the whole of
    a serial sweep.  A clean exception becomes that spec's
    ``phase="error"`` result, with the traceback where it was raised."""
    results: list[ScenarioOutcome] = []
    for spec in specs:
        try:
            results.append(task(spec))
        except Exception as exc:
            results.append(ScenarioError(
                spec=spec, error=f"{type(exc).__name__}: {exc}",
                phase="error", traceback=traceback.format_exc()))
    return results


@dataclass
class SweepResult:
    """All scenario outcomes of one sweep, in spec order."""

    results: list[ScenarioOutcome]
    wall_time: float = 0.0
    workers: int = 1

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, idx):
        return self.results[idx]

    @property
    def scenarios(self) -> list[ScenarioResult]:
        """Successful results only, still in spec order."""
        return [r for r in self.results if r.ok]

    @property
    def errors(self) -> list[ScenarioError]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.errors

    def metrics_dict(self) -> dict[str, dict[str, float]]:
        """Per-scenario metric scalars, keyed by scenario name."""
        return {res.name: dict(res.metrics)
                for res in self.results if res.ok}


class SweepRunner:
    """Run scenario grids serially or across a process pool.

    ``max_workers=1`` (or a one-element grid) runs in-process — no
    pickling, no pool — with identical results and error structure.
    ``task`` is the module-level callable each worker runs (default
    :func:`run_scenario`); tests substitute crash/sleep harnesses.
    """

    def __init__(self, max_workers: Optional[int] = None, *,
                 timeout: Optional[float] = None,
                 mp_context: Optional[str] = None,
                 task: Callable[[ScenarioSpec], ScenarioResult]
                 = run_scenario):
        cpus = multiprocessing.cpu_count()
        self.max_workers = max_workers if max_workers else cpus
        if self.max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.timeout = timeout
        #: "fork" keeps task functions picklable by reference (and is
        #: available on the platforms CI runs); fall back to the
        #: platform default elsewhere.
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._ctx = (multiprocessing.get_context(mp_context)
                     if mp_context else multiprocessing.get_context())
        self.task = task

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[Union[ScenarioSpec, dict]]) -> SweepResult:
        specs = [s if isinstance(s, ScenarioSpec)
                 else ScenarioSpec.from_dict(s) for s in specs]
        t0 = time.perf_counter()
        if self.max_workers == 1 or len(specs) <= 1:
            results = _run_chunk(self.task, specs)
            workers = 1
        else:
            results = self._run_parallel(specs)
            workers = min(self.max_workers, len(specs))
        return SweepResult(results=results,
                           wall_time=time.perf_counter() - t0,
                           workers=workers)

    def run_serial(self, specs: Sequence[Union[ScenarioSpec, dict]]
                   ) -> SweepResult:
        """In-process execution regardless of ``max_workers``."""
        specs = [s if isinstance(s, ScenarioSpec)
                 else ScenarioSpec.from_dict(s) for s in specs]
        t0 = time.perf_counter()
        return SweepResult(results=_run_chunk(self.task, specs),
                           wall_time=time.perf_counter() - t0, workers=1)

    # ------------------------------------------------------------------
    def _run_parallel(self, specs: list[ScenarioSpec]
                      ) -> list[ScenarioOutcome]:
        results: dict[int, ScenarioOutcome] = {}
        size = min(_MAX_CHUNK, -(-len(specs) // (_CHUNKS_PER_WORKER
                                                 * self.max_workers)))
        #: (index of the first spec, the chunk's specs), in spec order.
        chunks = deque((start, specs[start:start + size])
                       for start in range(0, len(specs), size))
        suspects: list[int] = []
        while chunks:
            self._drain(chunks, self.max_workers, results, suspects)
        # A chunk that died with its pool or missed its deadline cannot
        # name its culprit, so each of its specs runs again alone on a
        # fresh single-worker pool: an innocent completes there, and
        # the culprit's second failure is recorded.
        for idx in sorted(suspects):
            self._drain(deque([(idx, [specs[idx]])]), 1, results, None)
        return [results[i] for i in range(len(specs))]

    def _drain(self, chunks: deque, workers: int, results: dict,
               suspects: Optional[list]) -> None:
        """Run ``chunks`` on one fresh pool until they are done, the pool
        breaks, or a chunk misses its deadline (its worker is abandoned,
        so the pool takes no new chunk).  Chunks never submitted stay in
        ``chunks`` for the next pool.  A failed chunk's specs join
        ``suspects``, or, on an isolated retry (``suspects=None``), the
        one spec's failure is recorded."""
        pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)),
                                   mp_context=self._ctx)
        inflight: dict = {}  # future -> (start, specs, deadline)
        accepting = True
        try:
            while True:
                while accepting and chunks and len(inflight) < workers:
                    start, chunk = chunks.popleft()
                    try:
                        fut = pool.submit(_run_chunk, self.task, chunk)
                    except BrokenProcessPool:
                        chunks.appendleft((start, chunk))
                        accepting = False
                        break
                    inflight[fut] = (start, chunk, time.monotonic()
                                     + self.timeout * len(chunk)
                                     if self.timeout else None)
                if not inflight:
                    return
                wait_s = (max(0.0, min(d for _, _, d in inflight.values())
                              - time.monotonic())
                          if self.timeout else None)
                done, _ = wait(inflight, timeout=wait_s,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    start, chunk, _ = inflight.pop(fut)
                    try:
                        for offset, res in enumerate(fut.result()):
                            results[start + offset] = res
                    except BrokenProcessPool:
                        # Every other in-flight future fails with it.
                        accepting = False
                        self._failed(
                            start, chunk, results, suspects, phase="crash",
                            error="worker process died (crash or kill) "
                                  "twice; giving up on this scenario")
                    except Exception as exc:  # e.g. an unpicklable result
                        self._failed(
                            start, chunk, results, suspects, phase="error",
                            error=f"{type(exc).__name__}: {exc}",
                            traceback=traceback.format_exc())
                now = time.monotonic()
                for fut, (start, chunk, deadline) in list(inflight.items()):
                    if deadline is not None and now >= deadline:
                        del inflight[fut]
                        accepting = False
                        self._failed(
                            start, chunk, results, suspects, phase="timeout",
                            error=f"scenario exceeded the "
                                  f"{self.timeout:g}s timeout")
        finally:
            # Never wait on abandoned (timed-out) workers; completed
            # futures already delivered their results.
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _failed(start: int, chunk: list, results: dict,
                suspects: Optional[list], **error) -> None:
        """A chunk failed whole: on a first attempt its specs become
        suspects; on an isolated retry its one spec's error is final."""
        if suspects is not None:
            suspects.extend(range(start, start + len(chunk)))
        else:
            results[start] = ScenarioError(spec=chunk[0], attempts=2,
                                           **error)


def sweep_scenarios(specs: Sequence[Union[ScenarioSpec, dict]], *,
                    max_workers: Optional[int] = None,
                    timeout: Optional[float] = None,
                    **runner_kwargs) -> SweepResult:
    """One-call sweep: build a runner, fan out, merge (the facade)."""
    runner = SweepRunner(max_workers, timeout=timeout, **runner_kwargs)
    return runner.run(specs)
