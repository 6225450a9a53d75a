#!/usr/bin/env python
"""Reachability census: which experiments reach each ``src/`` function.

Every function defined under ``src/repro`` (found with :mod:`ast`,
nested functions and methods included) is mapped to the set of entry
points whose run entered it, as seen by a ``sys.setprofile`` hook.  The
entry points are the experiments the reproduction exists for:

* the six ``benchmarks/e2e`` workloads at full inputs (``ckpt_grid``
  serially, in this process);
* every ``python -m repro`` subcommand at smoke size, plus
  ``run lu --json`` and ``grid --file`` fed that JSON;
* the four examples with the arguments ``tests/test_examples.py`` gives;
* ``run_static(..., verify=True)`` on four processors for each of the
  five applications, materialized (a 2x2 grid, or 4x1 for the 1-D
  applications);
* the figure and ablation tests, through an in-process ``pytest.main``
  with ``--benchmark-disable`` (pytest-benchmark's fixture otherwise
  replaces the profile hook, and everything it times reads as
  unreached), attributed per test file.

A function no entry point reaches is a deletion candidate; whether it
goes depends on what else holds it (a test oracle, a name the e2e trace
pins).  The tool exits non-zero if an entry point raised or if any of
:data:`SENTINELS` went unreached, so a hook that was silently dropped
cannot make live code look dead.

Usage (stdlib only; takes several minutes, most of it the figure tests)::

    PYTHONPATH=src python scripts/census.py --out /tmp/census.json
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Functions every full census must reach.  Each sits under a layer that
#: has been falsely reported dead by a dropped hook, so a miss here
#: means the census, not the code, is broken.
SENTINELS = (
    "repro.redist.schedule:edge_coloring_schedule",
    "repro.cluster.network:Network.transfer",
    "repro.simulate.engine:Environment.run",
    "repro.core.queue:JobQueue.next_startable",
    "repro.redist.walk:Walk.run",
)

#: ``tests/test_examples.py``'s invocations.
EXAMPLES = (
    ("quickstart.py",),
    ("job_mix_scheduling.py", "--fast"),
    ("port_an_application.py",),
    ("sweet_spot_probe.py", "--size", "8000"),
)

#: Smoke-sized CLI invocations, one per subcommand.
CLI_RUNS = (
    ("run", "lu", "--size", "2000", "--start", "1x2", "--procs", "8",
     "--iterations", "3"),
    ("workload", "w1", "--iterations", "1"),
    ("sweep", "lu", "--size", "2000", "--procs", "8"),
    ("synth", "--jobs", "3", "--seed", "3", "--procs", "8",
     "--iterations", "2"),
    ("grid", "all", "--smoke", "--workers", "1"),
)

#: ``benchmarks/e2e/run.py``'s default seed.
E2E_SEED = 11

APPS = ("lu", "mm", "jacobi", "fft", "masterworker")

FIGURE_TESTS = ("test_fig*.py", "test_ablation_*.py")


# ---------------------------------------------------------------------------
# What exists: every function definition under src/
# ---------------------------------------------------------------------------
class _Defs(ast.NodeVisitor):
    """Collects ``(line, name) -> (qualname, lines)`` for one module.

    ``line`` is where the compiled code object starts: the first
    decorator's line for a decorated function, else the ``def`` line.
    """

    def __init__(self):
        self.scope: list[str] = []
        self.found: dict[tuple[int, str], tuple[str, int]] = {}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        qualname = ".".join(self.scope + [node.name])
        self.found[(first, node.name)] = (qualname,
                                          node.end_lineno - first + 1)
        self.scope += [node.name, "<locals>"]
        self.generic_visit(node)
        del self.scope[-2:]

    visit_AsyncFunctionDef = visit_FunctionDef


def src_functions(src: pathlib.Path = SRC
                  ) -> dict[tuple[str, int, str], tuple[str, int]]:
    """``(real path, first line, name) -> ("module:qualname", lines)``
    for every function defined under ``src``."""
    table = {}
    seen: dict[str, int] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        module = ".".join(parts)
        visitor = _Defs()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        real = os.path.realpath(path)
        for (line, name), (qualname, lines) in visitor.found.items():
            key = f"{module}:{qualname}"
            # A redefinition (a property setter) is keyed by its ordinal.
            seen[key] = count = seen.get(key, 0) + 1
            if count > 1:
                key = f"{key}#{count}"
            table[(real, line, name)] = (key, lines)
    return table


# ---------------------------------------------------------------------------
# What runs: a profile hook that records entered code objects
# ---------------------------------------------------------------------------
class Recorder:
    """A ``sys.setprofile`` hook that adds every entered code object to
    the set of the entry point named last by :meth:`enter`."""

    def __init__(self):
        self.seen: dict[str, set] = {}
        self.current: set = set()

    def enter(self, name: str) -> None:
        self.current = self.seen.setdefault(name, set())

    def hook(self, frame, event, _arg) -> None:
        if event == "call":
            self.current.add(frame.f_code)

    @contextlib.contextmanager
    def installed(self):
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)


def census(entries: dict[str, Callable[[Recorder], None]],
           src: pathlib.Path = SRC) -> dict:
    """Run each entry point under the profile hook; map every ``src``
    function to the sorted entry points that reached it.

    An entry is called with the :class:`Recorder`, so it may split its
    run into sub-entries with ``recorder.enter`` (the pytest entry
    attributes each test to its file).  An entry that raises is
    reported under ``errors`` and the census goes on.
    """
    table = src_functions(src)
    recorder = Recorder()
    timings: dict[str, float] = {}
    errors: dict[str, str] = {}
    for name, entry in entries.items():
        recorder.enter(name)
        start = time.perf_counter()
        try:
            with recorder.installed():
                entry(recorder)
        except (Exception, SystemExit) as err:  # reported, not fatal
            errors[name] = "".join(
                traceback.format_exception_only(type(err), err)).strip()
            print(f"census: {name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        timings[name] = round(time.perf_counter() - start, 3)

    real: dict[str, str] = {}
    reached: dict[str, set] = {key: set() for key, _ in table.values()}
    for name, codes in recorder.seen.items():
        for code in codes:
            path = real.get(code.co_filename)
            if path is None:
                path = real[code.co_filename] = os.path.realpath(
                    code.co_filename)
            hit = table.get((path, code.co_firstlineno, code.co_name))
            if hit is not None:
                reached[hit[0]].add(name)
    lines = dict(table.values())
    unreached = sorted(key for key, names in reached.items() if not names)
    return {
        "functions": {key: sorted(names)
                      for key, names in sorted(reached.items())},
        "unreached": unreached,
        "entry_points": {name: {"seconds": timings.get(name),
                                "functions": sum(
                                    name in names
                                    for names in reached.values()),
                                "error": errors.get(name)}
                         for name in recorder.seen},
        "errors": errors,
        "summary": {"functions": len(reached),
                    "reached": len(reached) - len(unreached),
                    "unreached": len(unreached),
                    "unreached_lines": sum(lines[key] for key in unreached)},
    }


def check_sentinels(result: dict) -> list[str]:
    """The :data:`SENTINELS` the census did not see reached."""
    functions = result["functions"]
    return [key for key in SENTINELS if not functions.get(key)]


# ---------------------------------------------------------------------------
# The entry points
# ---------------------------------------------------------------------------
def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quiet(fn: Callable[[], object]) -> object:
    with contextlib.redirect_stdout(io.StringIO()):
        return fn()


def _workload_entry(workload):
    def run(_recorder):
        inputs = workload.build(E2E_SEED, False)
        if workload.parallel:
            result = workload.run(inputs, serial=True)
        else:
            result = workload.run(inputs)
        if result.failed:
            raise RuntimeError(f"{result.failed} of {result.attempted} "
                               "operations failed")
    return run


def _cli_entry(argv: tuple[str, ...]):
    def run(_recorder):
        from repro.cli import main
        code = _quiet(lambda: main(list(argv)))
        if code:
            raise RuntimeError(f"exit status {code}")
    return run


def _cli_file_entry(_recorder):
    """``run lu --json`` and ``grid --file`` on what it printed."""
    from repro.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(["run", "lu", "--size", "2000", "--procs", "8",
                 "--iterations", "2", "--json"]):
            raise RuntimeError("run --json failed")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "spec.json"
        path.write_text(out.getvalue())
        _cli_entry(("grid", "--file", str(path), "--workers", "1"))(None)


def _example_entry(args: tuple[str, ...]):
    def run(_recorder):
        path = ROOT / "examples" / args[0]
        argv = sys.argv
        sys.argv = [str(path), *args[1:]]
        try:
            _quiet(lambda: runpy.run_path(str(path), run_name="__main__"))
        except SystemExit as stop:
            if stop.code:
                raise RuntimeError(f"exit status {stop.code}") from None
        finally:
            sys.argv = argv
    return run


def _verify_entry(kind: str):
    def run(_recorder):
        from repro.api.standalone import run_static
        from repro.apps import application_by_name
        size = 10**9 if kind == "masterworker" else 96
        app = application_by_name(kind, problem_size=size, iterations=2,
                                  materialized=True)
        if kind == "jacobi":
            app.inner_sweeps = 30  # converges in two iterations
        config = (2, 2) if app.topology == "grid" else (4, 1)
        result = run_static(app, config, verify=True)
        if result.verified is not True:
            raise RuntimeError(f"{kind} did not verify")
    return run


class _PerFile:
    """pytest plugin: attribute each test's run to ``pytest:<file>``
    (start-up and collection stay with the ``pytest`` entry)."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def pytest_runtest_protocol(self, item, nextitem):
        self.recorder.enter(f"pytest:{item.path.name}")


def _pytest_entry(recorder: Recorder) -> None:
    import pytest
    files = sorted(str(path) for pattern in FIGURE_TESTS
                   for path in (ROOT / "benchmarks").glob(pattern))
    with contextlib.chdir(ROOT):
        code = _quiet(lambda: pytest.main(
            [*files, "-q", "-p", "no:cacheprovider", "--benchmark-disable"],
            plugins=[_PerFile(recorder)]))
    if code:
        raise RuntimeError(f"pytest exit status {int(code)}")


def default_entries() -> dict[str, Callable[[Recorder], None]]:
    wl = _load(ROOT / "benchmarks" / "e2e" / "workloads.py",
               "census_e2e_workloads")
    entries: dict[str, Callable[[Recorder], None]] = {}
    for name, workload in wl.WORKLOADS.items():
        entries[f"e2e:{name}"] = _workload_entry(workload)
    for argv in CLI_RUNS:
        entries[f"cli:{argv[0]}"] = _cli_entry(argv)
    entries["cli:run --json + grid --file"] = _cli_file_entry
    for args in EXAMPLES:
        entries[f"example:{args[0]}"] = _example_entry(args)
    for kind in APPS:
        entries[f"verify:{kind}"] = _verify_entry(kind)
    entries["pytest"] = _pytest_entry
    return entries


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="where to write the JSON map (keep it "
                             "outside the tracked tree)")
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    result = census(default_entries())
    missing = check_sentinels(result)
    result["sentinels_missing"] = missing
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    summary = result["summary"]
    print(f"census: {summary['reached']} of {summary['functions']} src/ "
          f"functions reached; {summary['unreached']} unreached "
          f"({summary['unreached_lines']} lines) -> {out}")
    for name, info in result["entry_points"].items():
        seconds = ("" if info["seconds"] is None
                   else f"{info['seconds']:.1f} s")
        status = "ERROR" if info["error"] else "ok"
        print(f"  {name:38s} {seconds:>9s} {info['functions']:5d} "
              f"functions  {status}")
    if missing:
        print(f"census: sentinels not reached: {missing}", file=sys.stderr)
    return 1 if missing or result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
