"""Self-test of the end-to-end benchmark (``--quick`` sizes, no timing
assertions): the names ``BENCHMARK.json`` promises are the names
``run.py`` prints, a run leaves the tree alone, and ``--seed`` changes
the seeded workload's inputs and nothing else."""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def git_status():
    """Porcelain status of tracked files, or None outside a git tree."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e_out")
    before = git_status()
    done = subprocess.run(RUN + ["--quick", "--out", str(out)],
                          capture_output=True, text=True, timeout=900)
    return done, out, before


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(WORKLOADS) == 6
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_metric_definitions_cover_benchmark_json():
    """metrics.json carries what BENCHMARK.json may not: each per-layer
    metric's layer and the end-to-end number it is predicted to move."""
    defined = json.loads((HERE / "metrics.json").read_text())
    assert list(defined["end_to_end"]) == END_TO_END
    rows = defined["per_layer"]
    assert [row["name"] for row in rows] == PER_LAYER
    by_name = {m["name"]: m for m in SPEC["per_layer"]}
    for row in rows:
        assert row["moves"] and row["layer"]
        assert (row["unit"], row["better"]) == (
            by_name[row["name"]]["unit"], by_name[row["name"]]["better"])


def test_quick_run_reports_every_metric(quick_run):
    done, out, _before = quick_run
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads((out / "results.json").read_text())
    assert report["quick"] and list(report["workloads"]) == WORKLOADS
    for workload in WORKLOADS:
        entry = report["workloads"][workload]
        assert entry["correct"], workload
        assert entry["fail_share"] == 0 and entry["sim_drift_max_rel"] == 0
        assert list(entry["end_to_end"]) == END_TO_END
        assert list(entry["traced"]["result"]["metrics"]) == PER_LAYER
        trace = json.loads((out / f"trace_{workload}.json").read_text())
        assert trace["spans_total"] > 0
        for name in END_TO_END + PER_LAYER + ["fail_share",
                                              "sim_drift_max_rel"]:
            assert re.search(rf"^{workload}\s+{re.escape(name)}\s+\S+ \S+",
                             done.stdout, re.M), (workload, name)
    # Every declared layer is exercised by at least one workload.
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            assert any(report["workloads"][w]["traced"]["result"]["metrics"]
                       [metric]["value"] > 0 for w in WORKLOADS), metric
    assert all(report["workloads"][w]["traced"]["result"]["metrics"]
               ["trace.missing_entry_points"]["value"] == 0
               for w in WORKLOADS)


def test_run_changes_no_tracked_file(quick_run):
    _done, _out, before = quick_run
    if before is None:
        pytest.skip("not a git checkout")
    assert git_status() == before


def test_driver_contract_line():
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        done = subprocess.run(
            RUN + ["--quick", "--workload", "sched_scale", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int)
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == names
        units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def test_seed_changes_only_seeded_inputs():
    import workloads as wl
    for workload in wl.WORKLOADS.values():
        prints = {wl.fingerprint(workload.build(seed, True))
                  for seed in (11, 12)}
        assert len(prints) == (2 if workload.seeded else 1), workload.name
    assert [w.name for w in wl.WORKLOADS.values() if w.seeded] \
        == ["sched_scale"]
    assert list(wl.WORKLOADS) == WORKLOADS
    assert [w.why for w in wl.WORKLOADS.values()] \
        == [w["why"] for w in SPEC["workloads"]]


def test_golden_covers_default_and_held_out_seed():
    import run
    import workloads as wl
    golden = json.loads((HERE / "golden.json").read_text())
    for workload in wl.WORKLOADS.values():
        seeds = run.GOLDEN_SEEDS if workload.seeded else run.GOLDEN_SEEDS[:1]
        for seed in seeds:
            key = wl.fingerprint(workload.build(seed, False))
            assert key in golden[workload.name], (workload.name, seed)


def test_compare_verdicts():
    import compare
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]

    def judge(change, bound=0.10):
        return compare.verdict(steady, change, lower_is_better=True,
                               bound=bound)[0]
    assert judge(steady) == "unchanged"
    assert judge([v * 1.2 for v in steady]) == "regressed"
    assert judge([v * 0.8 for v in steady]) == "improved"
    assert judge([0.7, 1.3, 0.8, 1.25, 1.0, 1.05]) == "unresolved"
    assert compare.verdict([10, 11, 12], [20, 21, 22],
                           lower_is_better=False, bound=0.1)[0] == "improved"


def test_compare_same_file_is_clean(quick_run):
    _done, out, _before = quick_run
    results = str(out / "results.json")
    done = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           results, results],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "regressed" not in done.stdout and "WRONG" not in done.stdout
    assert len(re.findall(r"unchanged", done.stdout)) \
        == len(WORKLOADS) * len(END_TO_END)


def test_refuses_to_run_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "w2_pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
