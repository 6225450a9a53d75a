"""The six end-to-end workloads of the ReSHAPE simulator benchmark.

Each workload turns ``(seed, quick)`` into inputs, and one *pass* over
those inputs into a :class:`PassResult`: the simulated statistics (the
digest the golden checker compares), the operations attempted and
failed, and the modelled-system numbers the traced run reports.  The
program under test receives only the generated inputs; everything that
draws from the seed lives in the ``build_*`` functions here.

Sizes are set by the benchmark driver's time cap (22 runs of every
workload inside 3420 s, each run setting up three times), not by the
paper: the two paper pairs keep their published scale because later
issues cite their host seconds, the other four are sized to roughly one
host second per pass.  ``quick`` sizes exist only for the self-test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

import repro
from repro import redist
from repro.blacs import ProcessGrid
from repro.cluster.machine import Machine, MachineSpec
from repro.core.job import reset_job_ids
from repro.darray import Descriptor, DistributedMatrix
from repro.mpi import World
from repro.simulate import Environment
from repro.sweep import resolver
from repro.sweep.experiments import (
    CHECKPOINT_SIZES,
    CHECKPOINT_TRANSITIONS,
    checkpoint_grid,
    summarize_checkpoint,
)
from repro.sweep.spec import ScenarioSpec
from repro.workloads.generator import WorkloadGenerator

#: Paper Table 4: W1 processor utilization, static vs ReSHAPE dynamic.
PAPER_W1_UTILIZATION = {"static": 0.397, "dynamic": 0.707}

#: Generator seed of ``synth_mix``.  Pinned: across seeds 11..20 the
#: host time of a 48-job mix spreads by 20-40 % (which jobs get to
#: expand decides how many first iterations are simulated), far outside
#: any usable regression bound, so this workload is a fixed input.
SYNTH_MIX_SEED = 11


@dataclass
class PassResult:
    """What one pass over a workload's inputs produced."""

    #: Simulated statistics compared value by value (relative drift).
    scalars: dict[str, float]
    #: Digests of long statistic vectors; compared for equality.
    hashes: dict[str, str]
    attempted: int
    failed: int
    #: Modelled-system results for the ``sim.*`` per-layer metrics.
    sim: dict[str, float] = field(default_factory=dict)
    #: Host-side facts of the pass (``ckpt_grid``: sweep wall times).
    host: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Whether ``--seed`` changes the inputs.
    seeded: bool
    build: Callable[[int, bool], Any]
    run: Callable[..., PassResult]
    #: Runs on 2 sweep workers; its traced pass is serial (``serial=True``)
    #: so that all spans live in one process.
    parallel: bool = False


def vector_hash(values) -> str:
    """Digest of a float vector, exact to the last bit."""
    data = np.asarray(list(values), dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(inputs) -> str:
    """Identity of a workload's inputs (keys the golden file)."""
    text = json.dumps(inputs, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _jsonable(obj):
    """ScenarioSpec and JobSpec both describe themselves JSON-safely."""
    return obj.to_dict()


# ---------------------------------------------------------------------------
# Scheduling workloads: w2_pair, w1_pair, synth_mix (through repro.run)
# ---------------------------------------------------------------------------

def _schedule_result(label: str, res, out: PassResult) -> None:
    """Fold one kind="schedule" ScenarioResult into ``out``."""
    turnarounds = [ta for _n, _s, _a, ta, _r in res.job_stats]
    finished = [ta for ta in turnarounds if ta is not None]
    out.attempted += len(res.job_stats)
    out.failed += (len(turnarounds) - len(finished)
                   + int(res.metric("errors", 0.0)))
    out.scalars[f"{label}.makespan"] = float(res.makespan)
    out.scalars[f"{label}.utilization"] = float(res.utilization)
    out.scalars[f"{label}.mean_turnaround"] = \
        float(res.metric("mean_turnaround", 0.0))
    for name, _size, _arrival, ta, rd in res.job_stats:
        out.scalars[f"{label}.turnaround.{name}"] = \
            float("nan") if ta is None else float(ta)
        out.scalars[f"{label}.redistribution.{name}"] = float(rd)
    out.sim["sim.makespan_s"] = float(res.makespan)
    out.sim["sim.utilization"] = float(res.utilization)
    out.sim["sim.mean_turnaround_s"] = \
        float(res.metric("mean_turnaround", 0.0))


def _build_pair(workload: str):
    def build(seed: int, quick: bool):
        base = ScenarioSpec(kind="schedule", workload=workload,
                            iterations=2 if quick else 10)
        return [base.but(dynamic=False), base.but(dynamic=True)]
    return build


def _run_pair(specs) -> PassResult:
    """Static leg then dynamic leg; ``sim.*`` report the dynamic leg."""
    out = PassResult({}, {}, 0, 0)
    err_pp = 0.0
    for spec in specs:
        leg = "dynamic" if spec.dynamic else "static"
        res = repro.run(spec)
        _schedule_result(leg, res, out)
        if spec.workload == "w1":
            err_pp = max(err_pp, 100.0 * abs(
                float(res.utilization) - PAPER_W1_UTILIZATION[leg]))
    out.sim["sim.paper_util_err_pp"] = err_pp
    return out


def _build_synth(seed: int, quick: bool):
    return [ScenarioSpec(kind="schedule", workload="synthetic",
                         seed=SYNTH_MIX_SEED,
                         num_jobs=4 if quick else 24,
                         mean_interarrival=60.0,
                         arrival_model="lognormal",
                         iterations=1 if quick else 3,
                         num_processors=36)]


def _run_synth(specs) -> PassResult:
    out = PassResult({}, {}, 0, 0)
    _schedule_result("mix", repro.run(specs[0]), out)
    return out


# ---------------------------------------------------------------------------
# sched_scale: closed-form jobs straight into the framework, no MPI
# ---------------------------------------------------------------------------

def _build_scale(seed: int, quick: bool):
    gen = WorkloadGenerator(seed=seed)
    return gen.generate_scale(2_000 if quick else 20_000)


def _run_scale(job_specs) -> PassResult:
    reset_job_ids()
    fw = repro.ReshapeFramework(env=Environment(), num_processors=36,
                                dynamic=True)
    jobs = WorkloadGenerator().submit_all(fw, job_specs, iterations=1)
    fw.run()
    turnarounds = [job.turnaround for job in jobs.values()]
    finished = [ta for ta in turnarounds if ta is not None]
    errors = len(fw.timeline.endings("error"))
    makespan = float(fw.timeline.makespan())
    utilization = float(fw.utilization())
    mean_ta = sum(finished) / len(finished) if finished else 0.0
    return PassResult(
        scalars={"makespan": makespan,
                 "utilization": utilization,
                 "mean_turnaround": mean_ta,
                 "max_turnaround": max(finished, default=0.0),
                 "simulated_time": float(fw.env.now)},
        hashes={"turnarounds": vector_hash(
                    -1.0 if ta is None else ta for ta in turnarounds),
                "start_times": vector_hash(
                    -1.0 if job.start_time is None else job.start_time
                    for job in jobs.values())},
        attempted=len(turnarounds),
        failed=len(turnarounds) - len(finished) + errors,
        sim={"sim.makespan_s": makespan,
             "sim.utilization": utilization,
             "sim.mean_turnaround_s": mean_ta})


# ---------------------------------------------------------------------------
# redist_data: real bytes through the redistribution library
# ---------------------------------------------------------------------------

#: Expansions up to 4x4, then shrinks back: a gain for one direction
#: that costs the other shows.
REDIST_CHAIN = ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4),
                (3, 3), (2, 2), (1, 2))


def _build_redist(seed: int, quick: bool):
    # 1200/50 is the 24x24-block layout of a 2400/100 matrix at a
    # quarter of the bytes: at 2400 every target array is a fresh 46 MB
    # mmap, and page-fault time (22 000 faults a pass) made quiet-host
    # passes spread 0.80-1.31 s.
    return {"n": 600 if quick else 1200,
            "block": 50,
            "chain": [list(cfg) for cfg in REDIST_CHAIN],
            "chains_per_pass": 1 if quick else 10}


def _run_redist(inputs) -> PassResult:
    n, block = inputs["n"], inputs["block"]
    chain = [tuple(cfg) for cfg in inputs["chain"]]
    # Integer-valued floats: any misplaced element changes the array,
    # and equality with the original is exact.
    original = np.arange(n * n, dtype=np.float64).reshape(n, n)
    out = PassResult({}, {}, 0, 0)
    sim_s = 0.0
    for chain_idx in range(inputs["chains_per_pass"]):
        results, final = _redistribute_chain(original, block, chain)
        intact = np.array_equal(final, original)
        out.attempted += len(results)
        # A chain that corrupts the array fails every step of it: which
        # step did it cannot be told from the final array.
        out.failed += 0 if intact else len(results)
        for step, (elapsed, messages, wire_bytes) in enumerate(results):
            key = f"chain{chain_idx}.step{step}"
            out.scalars[f"{key}.elapsed"] = float(elapsed)
            out.scalars[f"{key}.messages"] = float(messages)
            out.scalars[f"{key}.wire_bytes"] = float(wire_bytes)
            sim_s += elapsed
    out.sim["sim.makespan_s"] = sim_s
    return out


def _redistribute_chain(original: np.ndarray, block: int, chain):
    """One materialized matrix walked along ``chain``; returns rank 0's
    ``(elapsed, messages, wire bytes)`` per step and the reassembled
    final array.  Only numbers are kept: holding the result objects
    would keep every intermediate matrix alive."""
    env = Environment()
    nprocs = max(pr * pc for pr, pc in chain)
    machine = Machine(env, MachineSpec(num_nodes=nprocs))
    world = World(env, machine, launch_overhead=0.0)
    n = original.shape[0]
    desc = Descriptor(m=n, n=n, mb=block, nb=block,
                      grid=ProcessGrid(*chain[0]))
    start = DistributedMatrix.from_global(original, desc)
    results: list = []
    final: dict = {}

    def main(comm):
        dm = start
        for target in chain[1:]:
            res = yield from redist.redistribute(
                comm, dm, ProcessGrid(*target))
            # Ranks outside the new grid get no matrix back; rank 0 is
            # in every grid and shares the (in-process) object.
            dm = yield from comm.bcast(res.matrix, root=0)
            if comm.rank == 0:
                results.append((res.elapsed, res.messages,
                                res.total_bytes_moved))
        if comm.rank == 0:
            final["dm"] = dm

    world.launch(main, processors=list(range(nprocs)), name="redist_data")
    env.run()
    return results, final["dm"].to_global()


# ---------------------------------------------------------------------------
# ckpt_grid: many tiny phantom scenarios through the sweep runner
# ---------------------------------------------------------------------------

#: Each MachineSpec field is either the System X default or scaled, so
#: 2**4 = 16 machine variants; the all-default one is the paper's.
MACHINE_AXES = (("nic_bandwidth", 2.0), ("disk_write_bandwidth", 0.5),
                ("latency", 2.0), ("contention_penalty", 2.0))


def _machine_variants(count: int) -> list[MachineSpec]:
    default = MachineSpec()
    variants = []
    for picks in itertools.product((False, True),
                                   repeat=len(MACHINE_AXES)):
        changes = {name: getattr(default, name) * factor
                   for (name, factor), on in zip(MACHINE_AXES, picks)
                   if on}
        variants.append(replace(default, **changes))
    return variants[:count]


def _build_ckpt(seed: int, quick: bool):
    sizes = CHECKPOINT_SIZES[:2] if quick else CHECKPOINT_SIZES
    steps = 2 if quick else len(CHECKPOINT_TRANSITIONS)
    return [spec for machine in _machine_variants(2 if quick else 16)
            for spec in checkpoint_grid(sizes, transitions=steps,
                                        machine=machine)]


def _run_ckpt(specs, *, serial: bool = False) -> PassResult:
    # The resolver is looked up at call time so a traced run (which
    # replaces the module attribute) is the function the runner calls.
    sweep = repro.sweep(specs, max_workers=1 if serial else 2,
                        task=resolver.run_scenario)
    elapsed, messages, wire = [], [], []
    for res in sweep.results:
        ok = res.ok
        elapsed.append(res.metric("elapsed") if ok else -1.0)
        messages.append(res.metric("messages") if ok else -1.0)
        wire.append(res.metric("wire_bytes") if ok else -1.0)
    default_machine = MachineSpec()
    paper = replace(sweep, results=[
        res for res in sweep.scenarios
        if res.spec.machine == default_machine])
    band = summarize_checkpoint(paper)
    in_band = bool(band.get("in_band"))
    return PassResult(
        scalars={"elapsed_sum": float(sum(elapsed)),
                 "messages_sum": float(sum(messages)),
                 "wire_bytes_sum": float(sum(wire)),
                 "paper_ratio_min": float(band.get("ratio_min", 0.0)),
                 "paper_ratio_max": float(band.get("ratio_max", 0.0))},
        hashes={"elapsed": vector_hash(elapsed),
                "messages": vector_hash(messages),
                "wire_bytes": vector_hash(wire)},
        attempted=len(sweep.results),
        # Outside the paper's 4.5-14.5 band every scenario of the
        # default-machine subset counts as failed.
        failed=len(sweep.errors) + (0 if in_band else len(paper.results)),
        sim={"sim.makespan_s": float(sum(elapsed)),
             "sim.ckpt_ratio_min": float(band.get("ratio_min", 0.0)),
             "sim.ckpt_ratio_max": float(band.get("ratio_max", 0.0))},
        host={"results": sweep.results,
              "workers": sweep.workers,
              "scenario_wall_s": sum(res.wall_time
                                     for res in sweep.scenarios)})


def sweep_metrics(host_s: float, result: PassResult) -> dict[str, float]:
    """The ``sweep.*`` per-layer metrics of an untraced pass that took
    ``host_s``; zeros for workloads that bypass the sweep runner."""
    host = result.host
    if not host:
        return {"sweep.scenarios": 0.0, "sweep.overhead_s": 0.0,
                "sweep.parallel_efficiency": 0.0,
                "sweep.result_pickle_bytes": 0.0}
    busy_s = host["scenario_wall_s"] / host["workers"]
    return {"sweep.scenarios": float(len(host["results"])),
            "sweep.overhead_s": host_s - busy_s,
            "sweep.parallel_efficiency": busy_s / host_s,
            "sweep.result_pickle_bytes": float(sum(
                len(pickle.dumps(res)) for res in host["results"]))}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("w2_pair",
             "paper Fig 5/Table 5 (W2 static then dynamic): collective "
             "replay does the work, so an mpi.coll change must show here",
             False, _build_pair("w2"), _run_pair),
    Workload("w1_pair",
             "paper Fig 4/Table 4 (W1 static then dynamic): broadest "
             "layer mix (p2p, expansions, redistribution) and the paper's "
             "utilization reference",
             False, _build_pair("w1"), _run_pair),
    Workload("synth_mix",
             "24 generated jobs under contention: queueing, backfill, "
             "shrink-to-admit and more distinct (app, size, grid) tuples "
             "than the paper mixes, so a cache sees a real working set",
             False, _build_synth, _run_synth),
    Workload("sched_scale",
             "20000 closed-form jobs, zero MPI: scheduler queue, ledger "
             "and event kernel only; an MPI change must not move it; "
             "inputs drawn from --seed",
             True, _build_scale, _run_scale),
    Workload("redist_data",
             "materialized 1200x1200 matrix redistributed up to 4x4 and "
             "back, 10 times: real bytes through darray pack/unpack and "
             "payload p2p, expansions and shrinks",
             False, _build_redist, _run_redist),
    Workload("ckpt_grid",
             "768 millisecond-sized phantom redistribution scenarios on "
             "2 sweep workers: fork pool, pickling, merge and resolver "
             "construction dominate; checks the paper's 4.5-14.5 band",
             False, _build_ckpt, _run_ckpt, parallel=True),
)}
