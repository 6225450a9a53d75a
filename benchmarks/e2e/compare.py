#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per
(workload, end-to-end metric) with both medians and quartiles, the
change as a share of A's median, and a verdict by the bounds fixed in
``BENCHMARK.json``:

``regressed``   B's median is worse than A's by more than the bound.
``improved``    B's median is better by more than the wider of the two
                files' own interquartile ranges, or every value of B is
                better than every value of A.
``unresolved``  neither, and the spread inside a file is wider than the
                bound: the benchmark could not have seen a regression
                of that size, so this is not "unchanged".
``unchanged``   neither, and the spread is within the bound.

Correctness is not a matter of bounds: a nonzero ``fail_share`` or a
``sim_drift_max_rel`` above 1e-9 in either file is reported and fails
the comparison.  Exit status 1 on any regression or wrong result.
"""

from __future__ import annotations

import json
import sys

from run import DRIFT_LIMIT, load_spec, quartiles


def verdict(base: list[float], change: list[float], *, lower_is_better: bool,
            bound: float) -> tuple[str, float]:
    """``(verdict, change as a share of the base median)``; a positive
    share means worse."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(base)
    b_q1, b_med, b_q3 = quartiles(change)
    worse = sign * (b_med - a_med) / abs(a_med)
    if worse > bound:
        return "regressed", worse
    spread = max(a_q3 - a_q1, b_q3 - b_q1)
    separated = (max(change) < min(base) if lower_is_better
                 else min(change) > max(base))
    if separated or sign * (a_med - b_med) > spread:
        return "improved", worse
    if spread / abs(a_med) > bound:
        return "unresolved", worse
    return "unchanged", worse


def compare(base: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':12s} {'metric':12s} {'A median':>11s} "
             f"{'A q1..q3':>23s} {'B median':>11s} {'B q1..q3':>23s} "
             f"{'B vs A':>8s} {'bound':>6s}  verdict"]
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"][workload], change["workloads"][workload]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a_vals = a["end_to_end"][key]["values"]
            b_vals = b["end_to_end"][key]["values"]
            what, worse = verdict(
                a_vals, b_vals, lower_is_better=metric["better"] == "lower",
                bound=metric["bound"])
            failed |= what == "regressed"
            a_q1, a_med, a_q3 = quartiles(a_vals)
            b_q1, b_med, b_q3 = quartiles(b_vals)
            lines.append(
                f"{workload:12s} {key:12s} {a_med:11.5g} "
                f"{a_q1:11.5g}..{a_q3:<10.5g} {b_med:11.5g} "
                f"{b_q1:11.5g}..{b_q3:<10.5g} "
                f"{100 * (b_med - a_med) / abs(a_med):+7.1f}% "
                f"{100 * metric['bound']:5.0f}%  {what} "
                f"(n={len(a_vals)}/{len(b_vals)}, {metric['unit']})")
        for label, run in (("A", a), ("B", b)):
            wrong = (run["fail_share"] > 0
                     or run["sim_drift_max_rel"] > DRIFT_LIMIT)
            failed |= wrong
            lines.append(
                f"{workload:12s} {'results ' + label:12s} fail_share "
                f"{run['fail_share']:.3g}, sim_drift_max_rel "
                f"{run['sim_drift_max_rel']:.3g}"
                f"{'  WRONG' if wrong else ''}")
    return lines, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as handle:
            files.append(json.load(handle))
    for label, report in zip("AB", files):
        host = report["host"]
        print(f"{label}: commit {host['commit'][:12]}, seed {report['seed']}, "
              f"{report['rounds']} rounds x {report['seconds']:g} s, "
              f"{host['nproc']} cores, python {host['python']}"
              f"{' (QUICK: not comparable)' if report['quick'] else ''}")
    lines, failed = compare(files[0], files[1], load_spec())
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
