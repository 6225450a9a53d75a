"""The sweep harness: spec round-trips, parallel-vs-serial bit
identity, crash/timeout/error containment, and the paper's checkpoint
ratio band."""

import dataclasses
import json
import os
import pickle
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster.machine import MachineSpec
from repro.core.framework import ReshapeFramework
from repro.core.policies import (
    ExpansionPolicy,
    GreedyExpansionPolicy,
    SweetSpotPolicy,
    ThresholdSweetSpot,
    make_expansion,
    make_sweet_spot,
)
from repro.sweep import (
    ScenarioError,
    ScenarioSpec,
    SweepRunner,
    checkpoint_grid,
    run_scenario,
    summarize_checkpoint,
    sweep_scenarios,
)
from repro.sweep.experiments import (
    CHECKPOINT_SMOKE_SIZES,
    CHECKPOINT_SMOKE_TRANSITIONS,
    PAPER_RATIO_BAND,
)
from repro.workloads.paper import JobSpec


def tiny_redist(seed=0, **kw):
    """A milliseconds-fast scenario (phantom redistribution path)."""
    base = dict(kind="redist", app="lu", size=2000, start=(1, 2),
                target=(2, 2), seed=seed)
    base.update(kw)
    return ScenarioSpec(**base)


def mixed_grid():
    """Eight scenarios spanning all three kinds."""
    specs = [tiny_redist(size=s, redistribution_method=m)
             for s in (2000, 3000) for m in ("reshape", "checkpoint")]
    specs += [ScenarioSpec(kind="static", app="mm", size=1200,
                           start=cfg, iterations=2)
              for cfg in ((1, 2), (2, 2))]
    specs += [ScenarioSpec(kind="schedule", workload="synthetic",
                           seed=seed, num_jobs=2, iterations=2,
                           mean_interarrival=20.0, max_initial=4,
                           num_processors=8,
                           machine=MachineSpec(num_nodes=8))
              for seed in (0, 1)]
    return specs


# -- worker tasks (module level so "fork" workers resolve them) --------
def crash_task(spec):
    if spec.label == "crash":
        os._exit(42)
    return run_scenario(spec)


def sleep_task(spec):
    # Later specs sleep less, so completion order is reversed.
    time.sleep(0.02 * spec.seed)
    return run_scenario(spec)


def slow_task(spec):
    if spec.label == "slow":
        time.sleep(5.0)
    return run_scenario(spec)


def boom_task(spec):
    if spec.label == "boom":
        raise ValueError("synthetic failure")
    return run_scenario(spec)


def nap_task(spec):
    with open(os.environ["SWEEP_RUN_LOG"], "a") as log:
        log.write(f"{spec.seed}\n")
    if spec.label == "nap":
        time.sleep(0.25)
    return run_scenario(spec)


def pid_task(spec):
    res = run_scenario(spec)
    return dataclasses.replace(
        res, metrics=res.metrics + (("pid", float(os.getpid())),))


def unpicklable_task(spec):
    res = run_scenario(spec)
    if spec.label == "unpicklable":
        # A lambda cannot cross the pool: the chunk's reply fails.
        return dataclasses.replace(res, metrics=(("fn", lambda: 0),))
    return res


def chunked_grid(n=24, **labels):
    """``n`` tiny specs; on two workers they go out in chunks of
    ``n // 8`` (four chunks per worker), so index 4 sits mid-chunk."""
    return [tiny_redist(seed=i, size=2000 + 40 * i,
                        label=labels.get(f"at{i}", ""))
            for i in range(n)]


# ---------------------------------------------------------------------
# Spec round-trips
# ---------------------------------------------------------------------
spec_strategy = st.one_of(
    st.builds(
        ScenarioSpec,
        kind=st.just("schedule"),
        workload=st.sampled_from(["w1", "w2", "synthetic", "single"]),
        seed=st.integers(0, 1000),
        num_jobs=st.integers(1, 12),
        iterations=st.integers(1, 20),
        dynamic=st.booleans(),
        backfill=st.booleans(),
        kernel=st.sampled_from(["calendar", "heap"]),
        sweet_spot=st.sampled_from(["simple", "threshold"]),
        sweet_spot_params=st.sampled_from(
            [(), (("threshold", 0.05),), (("threshold", 0.2),)]),
        expansion=st.sampled_from(["next-larger", "greedy"]),
        machine=st.builds(MachineSpec, num_nodes=st.integers(4, 64)),
    ),
    st.builds(
        ScenarioSpec,
        kind=st.just("static"),
        app=st.sampled_from(["lu", "mm", "jacobi", "fft"]),
        size=st.integers(480, 20000),
        start=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        iterations=st.integers(1, 10),
    ),
    st.builds(
        ScenarioSpec,
        kind=st.just("redist"),
        size=st.integers(1000, 20000),
        start=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        target=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        block=st.sampled_from([60, 120]),
        redistribution_method=st.sampled_from(["reshape", "checkpoint"]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(spec=spec_strategy)
def test_spec_json_round_trip(spec):
    wire = json.dumps(spec.to_dict())
    again = ScenarioSpec.from_dict(json.loads(wire))
    assert again == spec
    assert hash(again) == hash(spec)


def test_spec_round_trip_with_explicit_jobs():
    spec = ScenarioSpec(
        kind="schedule", workload="jobs",
        jobs=(JobSpec(kind="lu", problem_size=6000,
                      initial_config=(1, 2), arrival=10.0),
              JobSpec(kind="mm", problem_size=2400,
                      initial_config=(2, 2), arrival=50.0)))
    again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert all(isinstance(j, JobSpec) for j in again.jobs)


def test_spec_rejects_unknown_fields_and_kinds():
    with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
        ScenarioSpec.from_dict({"kind": "schedule", "wrkload": "w1"})
    with pytest.raises(ValueError, match="unknown scenario kind"):
        ScenarioSpec(kind="banana")
    with pytest.raises(ValueError, match="needs a target"):
        ScenarioSpec(kind="redist", target=None)


def test_spec_pickle_round_trip():
    spec = tiny_redist(sweet_spot="threshold",
                       sweet_spot_params={"threshold": 0.1})
    assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------
def test_policy_registry_and_pickling():
    assert make_sweet_spot("simple") == SweetSpotPolicy()
    assert (make_sweet_spot("threshold", threshold=0.1)
            == ThresholdSweetSpot(0.1))
    assert make_expansion("next-larger") == ExpansionPolicy()
    assert make_expansion("greedy") == GreedyExpansionPolicy()
    for policy in (SweetSpotPolicy(), ThresholdSweetSpot(0.07),
                   ExpansionPolicy(), GreedyExpansionPolicy()):
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy and type(clone) is type(policy)
    with pytest.raises(ValueError, match="unknown sweet-spot"):
        make_sweet_spot("nope")


# ---------------------------------------------------------------------
# Serial vs parallel bit identity, ordering determinism
# ---------------------------------------------------------------------
def test_parallel_sweep_bit_identical_to_serial():
    specs = mixed_grid()
    assert len(specs) >= 8
    runner = SweepRunner(max_workers=2)
    serial = runner.run_serial(specs)
    parallel = runner.run(specs)
    assert serial.ok and parallel.ok
    assert parallel.workers == 2
    assert serial.results == parallel.results  # timelines and all
    assert [r.spec for r in parallel.results] == specs


def test_merge_order_is_spec_order_under_shuffled_completion():
    # Descending sleeps: the last-submitted specs finish first.
    specs = [tiny_redist(seed=s, label=f"s{s}") for s in (4, 3, 2, 1, 0)]
    sweep = SweepRunner(max_workers=2, task=sleep_task).run(specs)
    assert sweep.ok
    assert [r.spec.label for r in sweep.results] == [s.label for s in specs]


def test_facade_accepts_dicts():
    spec_d = tiny_redist().to_dict()
    result = repro.run(spec_d)
    assert result.ok and result.metric("elapsed") > 0
    sweep = repro.sweep([spec_d, tiny_redist(size=3000).to_dict()],
                        max_workers=1)
    assert sweep.ok and len(sweep) == 2


# ---------------------------------------------------------------------
# Failure containment
# ---------------------------------------------------------------------
def test_worker_crash_becomes_structured_error_and_sweep_completes():
    specs = [tiny_redist(seed=0), tiny_redist(seed=1, label="crash"),
             tiny_redist(seed=2), tiny_redist(seed=3)]
    sweep = SweepRunner(max_workers=2, task=crash_task).run(specs)
    assert len(sweep.results) == 4
    assert len(sweep.errors) == 1
    err = sweep.results[1]
    assert isinstance(err, ScenarioError)
    assert err.phase == "crash"
    assert err.attempts == 2  # retried once on a fresh pool
    assert all(r.ok for i, r in enumerate(sweep.results) if i != 1)


def test_clean_exception_becomes_error_without_retry():
    specs = [tiny_redist(seed=0), tiny_redist(seed=1, label="boom")]
    for runner in (SweepRunner(max_workers=1, task=boom_task),
                   SweepRunner(max_workers=2, task=boom_task)):
        sweep = runner.run(specs)
        assert sweep.results[0].ok
        err = sweep.results[1]
        assert not err.ok and err.phase == "error"
        assert "synthetic failure" in err.error
        assert err.attempts == 1


def test_timeout_becomes_structured_error():
    specs = [tiny_redist(seed=0), tiny_redist(seed=1, label="slow"),
             tiny_redist(seed=2)]
    sweep = SweepRunner(max_workers=2, timeout=0.5,
                        task=slow_task).run(specs)
    assert len(sweep.results) == 3
    err = sweep.results[1]
    assert not err.ok and err.phase == "timeout"
    assert sweep.results[0].ok and sweep.results[2].ok


def test_chunked_grid_bit_identical_to_serial():
    specs = chunked_grid(40)
    runner = SweepRunner(max_workers=2)
    serial = runner.run_serial(specs)
    parallel = runner.run(specs)
    assert serial.ok and parallel.ok and parallel.workers == 2
    assert serial.results == parallel.results
    assert [r.spec for r in parallel.results] == specs


def test_chunks_are_contiguous_runs_on_one_worker():
    sweep = SweepRunner(max_workers=2, task=pid_task).run(chunked_grid(40))
    pids = [r.metric("pid") for r in sweep.results]
    # 40 specs on two workers: eight chunks of five.
    assert all(pids[i] == pids[i - i % 5] for i in range(40))


def test_crash_mid_chunk_is_attributed_to_its_spec():
    specs = chunked_grid(at4="crash")
    sweep = SweepRunner(max_workers=2, task=crash_task).run(specs)
    assert [r.spec for r in sweep.results] == specs
    assert len(sweep.errors) == 1
    err = sweep.results[4]
    assert err.phase == "crash" and err.attempts == 2
    assert all(r.ok for i, r in enumerate(sweep.results) if i != 4)


def test_clean_exception_mid_chunk_keeps_worker_traceback():
    specs = chunked_grid(at4="boom")
    sweep = SweepRunner(max_workers=2, task=boom_task).run(specs)
    assert len(sweep.errors) == 1
    err = sweep.results[4]
    assert err.phase == "error" and err.attempts == 1
    assert "synthetic failure" in err.error
    assert "boom_task" in err.traceback
    assert all(r.ok for i, r in enumerate(sweep.results) if i != 4)


def test_unsendable_result_mid_chunk_is_attributed_to_its_spec():
    specs = chunked_grid(at4="unpicklable")
    sweep = SweepRunner(max_workers=2, task=unpicklable_task).run(specs)
    assert len(sweep.errors) == 1
    err = sweep.results[4]
    assert err.phase == "error" and err.attempts == 2
    assert "pickle" in err.error
    assert all(r.ok for i, r in enumerate(sweep.results) if i != 4)


def test_slow_spec_mid_chunk_is_the_only_timeout():
    specs = chunked_grid(at4="slow")
    sweep = SweepRunner(max_workers=2, timeout=0.5,
                        task=slow_task).run(specs)
    assert len(sweep.errors) == 1
    assert sweep.results[4].phase == "timeout"
    assert sweep.results[4].attempts == 2
    assert all(r.ok for i, r in enumerate(sweep.results) if i != 4)


def test_chunk_deadline_scales_with_chunk_length(tmp_path, monkeypatch):
    # Each nap fits the 0.5 s timeout; the three of chunk [0, 3) take
    # 0.75 s together, inside that chunk's 3 x 0.5 s deadline.
    run_log = tmp_path / "runs.txt"
    monkeypatch.setenv("SWEEP_RUN_LOG", str(run_log))
    specs = chunked_grid(at0="nap", at1="nap", at2="nap")
    sweep = SweepRunner(max_workers=2, timeout=0.5,
                        task=nap_task).run(specs)
    assert sweep.ok
    # No chunk missed its deadline: nothing took the isolated retry.
    runs = sorted(int(line) for line in run_log.read_text().split())
    assert runs == list(range(len(specs)))


def test_serial_runner_used_for_single_worker_and_single_spec():
    sweep = sweep_scenarios([tiny_redist()], max_workers=8)
    assert sweep.workers == 1 and sweep.ok


def test_new_keywords_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ReshapeFramework(machine_spec=MachineSpec(num_nodes=8),
                         num_processors=4)


# ---------------------------------------------------------------------
# The paper's checkpoint-vs-redistribution band
# ---------------------------------------------------------------------
def test_checkpoint_smoke_grid_inside_paper_band():
    specs = checkpoint_grid(CHECKPOINT_SMOKE_SIZES,
                            transitions=CHECKPOINT_SMOKE_TRANSITIONS)
    assert len(specs) >= 8
    summary = summarize_checkpoint(sweep_scenarios(specs, max_workers=1))
    lo, hi = PAPER_RATIO_BAND
    assert summary["errors"] == 0
    assert summary["in_band"]
    assert lo <= summary["ratio_min"] <= summary["ratio_max"] <= hi


def test_framework_from_scenario_matches_spec():
    spec = ScenarioSpec(kind="schedule", workload="synthetic",
                        num_processors=12, dynamic=False,
                        sweet_spot="threshold",
                        sweet_spot_params={"threshold": 0.1},
                        expansion="greedy",
                        machine=MachineSpec(num_nodes=12))
    fw = ReshapeFramework.from_scenario(spec)
    assert fw.dynamic is False
    assert fw.remap.sweet_spot == ThresholdSweetSpot(0.1)
    assert fw.remap.expansion == GreedyExpansionPolicy()


def test_zero_processor_scenario_is_an_error():
    spec = ScenarioSpec(kind="schedule", workload="single", app="lu",
                        size=2000, iterations=1, num_processors=0)
    with pytest.raises(ValueError):
        repro.run(spec)
    err = repro.sweep([spec], max_workers=1).results[0]
    assert not err.ok and err.phase == "error"
