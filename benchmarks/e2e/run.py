#!/usr/bin/env python3
"""End-to-end benchmark of the ReSHAPE simulator: the one command.

Two ways in, one measurement underneath:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One *run* of one workload, the unit the benchmark driver calls.  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``).

``run.py [--seed 11] [--out DIR] [--quick]``
    Every workload: three rounds of untraced runs interleaved across
    workloads (round 1 of every workload, then round 2, ...) so a slow
    period of a shared host spreads over all of them, then one traced
    run each.  Prints every metric by name with its unit and writes
    ``DIR/results.json`` plus ``DIR/trace_<workload>.json``.

Closed loop, one generator: every pass starts when the previous one has
returned.  A run spawns three fresh child processes in turn
(``PYTHONHASHSEED=0``); each sets up (import, generate inputs from the
seed, one cold pass) and then times warm passes for a third of
``--seconds``, with ``gc.collect()`` before each and tracing off.
``host_s`` is the fastest warm pass of the run and ``setup_s`` the
fastest of its three set-ups; ``peak_rss_mb`` is the median of the
children's high-water marks.

Why the fastest and not the median: the simulator does identical work
in every pass, so all spread is added by the host, and on the shared
2-core host this was sized on the additions come in bursts of +10-35 %
lasting 10-30 s (a 400 s recording is summarised in README.md).  A
burst swallows most passes of a run; across ten runs the median pass
then spreads by 4-31 %, the fastest pass by 2-6 %.  Three processes per
run because the level a process settles at differs too (``sched_scale``:
0.84 s or 0.93 s for the life of the process).

Simulated results are checked on every pass: against ``golden.json``
when it knows these inputs, else against the child's own first pass,
and warm passes must agree with the first bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
CHILD_MARK = "E2E_CHILD "

#: Seeds the golden file covers: the default and the held-out one.
GOLDEN_SEEDS = (11, 12)
#: Simulated statistics may differ from the golden by at most this.
DRIFT_LIMIT = 1e-9
#: Child processes per run; each sets up and measures.
CHILDREN_PER_RUN = 3
ROUNDS = 3
#: A child that has not answered by then is killed (driver cap: 180 s).
CHILD_TIMEOUT_S = 170


@functools.cache
def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Correctness: golden file and pass-to-pass agreement
# ---------------------------------------------------------------------------

def drift(result, reference: dict) -> float:
    """Largest relative difference between a pass and its reference
    (``inf`` when a statistic is missing, NaN, or a digest differs)."""
    if (result.scalars.keys() != reference["scalars"].keys()
            or result.hashes != reference["hashes"]):
        return float("inf")
    worst = 0.0
    for key, value in result.scalars.items():
        ref = reference["scalars"][key]
        if value == ref:
            continue
        scale = max(abs(value), abs(ref))
        rel = abs(value - ref) / scale if scale else 0.0
        worst = max(worst, rel if rel == rel else float("inf"))
    return worst


def as_reference(result) -> dict:
    return {"scalars": dict(result.scalars), "hashes": dict(result.hashes)}


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN) as handle:
        return json.load(handle)


def update_golden() -> None:
    """Rewrite golden.json from this checkout (explicit request only)."""
    import workloads as wl
    golden: dict = {}
    for workload in wl.WORKLOADS.values():
        entries = golden.setdefault(workload.name, {})
        for seed in GOLDEN_SEEDS if workload.seeded else GOLDEN_SEEDS[:1]:
            inputs = workload.build(seed, False)
            result = workload.run(inputs)
            if result.failed:
                raise SystemExit(f"{workload.name}: {result.failed} failed "
                                 f"operations; golden not written")
            entries[wl.fingerprint(inputs)] = {
                "seed": seed if workload.seeded else "fixed",
                **as_reference(result)}
            print(f"golden: {workload.name} seed "
                  f"{seed if workload.seeded else 'fixed'}")
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Child process: set up, then measure or trace
# ---------------------------------------------------------------------------

def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timed_pass(workload, inputs, **kwargs):
    gc.collect()
    start = time.perf_counter()
    result = workload.run(inputs, **kwargs)
    return time.perf_counter() - start, result


def child_main(args) -> None:
    import workloads as wl
    workload = wl.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.quick)
    key = wl.fingerprint(inputs)
    _cold_s, first = timed_pass(workload, inputs)
    report = {"setup_s": time.time() - args.spawned_at,
              "inputs": key, "seeded": workload.seeded}
    reference = load_golden().get(workload.name, {}).get(key)
    report["golden"] = reference is not None
    if reference is None:
        reference = as_reference(first)
    state = {"drift": drift(first, reference), "agree": True,
             "attempted": first.attempted, "failed": first.failed}
    own = as_reference(first)

    def checked(seconds, minimum, **kwargs):
        """Timed warm passes for ``seconds`` (at least ``minimum``)."""
        samples, last = [], first
        began = time.perf_counter()
        while (len(samples) < minimum
               or time.perf_counter() - began < seconds):
            took, last = timed_pass(workload, inputs, **kwargs)
            samples.append(took)
            state["drift"] = max(state["drift"], drift(last, reference))
            state["agree"] &= as_reference(last) == own
            state["attempted"] += last.attempted
            state["failed"] += last.failed
        return samples, last

    if args.child == "measure":
        report["host_s_samples"], _ = checked(args.seconds, 1)
    else:
        report.update(traced(args, workload, inputs, checked))
    report.update(state)
    # JSON has no infinity; anything this large reads as "wrong".
    report["drift"] = min(state["drift"], 1e300)
    report["peak_rss_mb"] = peak_rss_mb(workload.parallel)
    print(CHILD_MARK + json.dumps(report), flush=True)


def traced(args, workload, inputs, checked) -> dict:
    """Untraced warm passes, then passes under the tracer."""
    import layertrace
    import workloads as wl
    # Half the run untraced (the baseline and the benchmark's own
    # spread), the rest for the traced pass and its bookkeeping.
    samples, last = checked(args.seconds / 2, 1 if args.quick else 3)
    metrics = wl.sweep_metrics(samples[-1], last)
    metrics.update(last.sim)
    base_s = min(samples)
    kwargs = {}
    if workload.parallel:
        # Spans must live in one process: the traced pass is serial, and
        # so is the untraced pass it is compared with.  Its results must
        # equal the 2-worker ones (the checker's serial == parallel).
        kwargs = {"serial": True}
        serial_samples, _ = checked(0, 1 if args.quick else 2, **kwargs)
        base_s = min(serial_samples)
    # Two traced passes, each under a fresh tracer; the faster one is
    # reported (a host burst during the only traced pass would read as
    # tracing overhead).
    traced_s, tracer = float("inf"), None
    for _ in range(1 if args.quick else 2):
        candidate = layertrace.Tracer()
        candidate.install()
        try:
            (took,), _ = checked(0, 1, **kwargs)
        finally:
            candidate.uninstall()
        if took < traced_s:
            traced_s, tracer = took, candidate
    metrics.update(tracer.metrics(traced_s))
    metrics["trace.overhead_x"] = traced_s / base_s
    metrics["bench.host_s_iqr_rel"] = iqr_rel(samples)
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"trace_{workload.name}.json", "w") as handle:
            json.dump({"workload": workload.name, "metrics": metrics,
                       **tracer.dump(traced_s)}, handle)
    return {"host_s_samples": samples, "layer_metrics": metrics}


def quartiles(values) -> tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``, defined for one value too."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_rel(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Parent: one run of one workload
# ---------------------------------------------------------------------------

def spawn(kind: str, args, workload: str, seconds: float) -> dict:
    """Run one child to completion and return what it reported."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", kind,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds),
           "--spawned-at", repr(time.time())]
    if args.quick:
        cmd.append("--quick")
    if args.out and kind == "trace":
        cmd += ["--out", str(args.out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = [line for line in done.stdout.splitlines()
             if line.startswith(CHILD_MARK)]
    if done.returncode or not lines:
        raise SystemExit(f"{workload}: {kind} child failed "
                         f"(exit {done.returncode})\n{done.stdout}")
    return json.loads(lines[-1][len(CHILD_MARK):])


def warm_page_cache() -> None:
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import repro, numpy"],
                   check=True, timeout=CHILD_TIMEOUT_S)


def run_once(args, workload: str, trace: bool) -> dict:
    """One run: the driver's unit.  Returns the result object whose JSON
    is the run's last output line, plus what each child reported."""
    spec = load_spec()
    load = os.getloadavg()[0]
    if trace:
        children = [spawn("trace", args, workload, args.seconds)]
        layer = children[0]["layer_metrics"]
        layer["sim.drift_max_rel"] = children[0]["drift"]
        metrics = {}
        for metric in spec["per_layer"]:
            value = layer.get(metric["name"])
            # The driver takes numbers only: an unmeasured layer reads 0
            # and is counted in trace.missing_entry_points.
            metrics[metric["name"]] = {
                "value": 0.0 if value is None else value,
                "unit": metric["unit"]}
    else:
        count = 1 if args.quick else CHILDREN_PER_RUN
        children = [spawn("measure", args, workload, args.seconds / count)
                    for _ in range(count)]
        values = {
            "host_s": min(min(c["host_s_samples"]) for c in children),
            "setup_s": min(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(
                c["peak_rss_mb"] for c in children)}
        metrics = {m["name"]: {"value": values[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    drift_max = max(c["drift"] for c in children)
    failed = sum(c["failed"] for c in children)
    return {"result": {"correct": (drift_max <= DRIFT_LIMIT and failed == 0
                                   and all(c["agree"] for c in children)),
                       "attempted": sum(c["attempted"] for c in children),
                       "failed": failed,
                       "metrics": metrics},
            "children": [{"host_s_samples": c["host_s_samples"],
                          "setup_s": c["setup_s"],
                          "peak_rss_mb": c["peak_rss_mb"]}
                         for c in children],
            "drift_max_rel": drift_max,
            "golden": children[0]["golden"],
            "inputs": children[0]["inputs"],
            "seed": args.seed if children[0]["seeded"] else "fixed",
            "load_before": load,
            "late": load > (os.cpu_count() or 1)}


def print_metrics(workload: str, run: dict) -> None:
    result = run["result"]
    for name, metric in result["metrics"].items():
        print(f"{workload:12s} {name:30s} {metric['value']:.6g} "
              f"{metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload:12s} {'fail_share':30s} {share:.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    print(f"{workload:12s} {'sim_drift_max_rel':30s} "
          f"{run['drift_max_rel']:.6g} ratio "
          f"({'golden' if run['golden'] else 'own first pass'}, "
          f"seed {run['seed']}, "
          f"{sum(len(c['host_s_samples']) for c in run['children'])} "
          f"warm passes"
          f"{', LATE: load ' + format(run['load_before'], '.2f') if run['late'] else ''})")


# ---------------------------------------------------------------------------
# Parent: the whole benchmark
# ---------------------------------------------------------------------------

def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    import numpy
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    out = pathlib.Path(args.out or HERE / "out")
    out.mkdir(parents=True, exist_ok=True)
    args.out = out
    rounds = 1 if args.quick else ROUNDS
    report = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "commit": git_commit(),
                 "platform": platform.platform()},
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "rounds": rounds, "load_before_round": [],
        "workloads": {name: {"runs": []} for name in names}}
    ok = True
    for _round in range(rounds):
        report["load_before_round"].append(os.getloadavg()[0])
        for name in names:
            run = run_once(args, name, trace=False)
            if run["late"]:
                # Reported, and repeated once: a round started under
                # load says more about the host than about the program.
                report["workloads"][name].setdefault("late", []).append(run)
                run = run_once(args, name, trace=False)
            report["workloads"][name]["runs"].append(run)
    for name in names:
        entry = report["workloads"][name]
        entry["traced"] = run_once(args, name, trace=True)
        children = [c for run in entry["runs"] for c in run["children"]]
        summary = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            # One value per child process: its fastest warm pass, its
            # set-up, its peak.
            values = [min(c["host_s_samples"]) if key == "host_s"
                      else c[key] for c in children]
            q1, median, q3 = quartiles(values)
            summary[key] = {"median": median, "q1": q1, "q3": q3,
                            "samples": len(values), "unit": metric["unit"],
                            "values": values}
        attempted = sum(r["result"]["attempted"] for r in entry["runs"])
        failed = sum(r["result"]["failed"] for r in entry["runs"])
        entry["end_to_end"] = summary
        entry["fail_share"] = failed / attempted
        entry["sim_drift_max_rel"] = max(
            r["drift_max_rel"] for r in entry["runs"] + [entry["traced"]])
        entry["correct"] = all(
            r["result"]["correct"] for r in entry["runs"] + [entry["traced"]])
        ok &= entry["correct"]
        print(f"\n== {name} ({'correct' if entry['correct'] else 'WRONG'})")
        for key, row in summary.items():
            print(f"{name:12s} {key:30s} {row['median']:.6g} {row['unit']}"
                  f"  (q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
                  f"n={row['samples']})")
        print(f"{name:12s} {'fail_share':30s} {entry['fail_share']:.6g} "
              f"ratio ({failed} failed / {attempted} attempted)")
        print(f"{name:12s} {'sim_drift_max_rel':30s} "
              f"{entry['sim_drift_max_rel']:.6g} ratio")
        for key, metric in entry["traced"]["result"]["metrics"].items():
            print(f"{name:12s} {key:30s} {metric['value']:.6g} "
                  f"{metric['unit']}")
    with open(out / "results.json", "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nresults: {out / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEEDS[0])
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for results and traces")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, one pass; self-test only, "
                             "never comparable")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--child", choices=("measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator at {SRC / 'repro'}; the benchmark "
              f"measures the checkout it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.quick:
        args.seconds = 0.0
    if args.child:
        child_main(args)
        return 0
    if args.update_golden:
        update_golden()
        return 0
    if not args.quick:
        warm_page_cache()
    if args.workload is None:
        return run_all(args)
    run = run_once(args, args.workload, trace=bool(args.trace))
    print_metrics(args.workload, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
