"""Command-line interface: run reproduction experiments from a shell.

    python -m repro run lu --size 12000 --start 1x2 --procs 36
    python -m repro workload w1 --iterations 10
    python -m repro sweep lu --size 8000
    python -m repro synth --jobs 8 --seed 3 --procs 24
    python -m repro grid all --smoke --workers 2

Every subcommand builds declarative :class:`ScenarioSpec` objects and
resolves them through the one shared resolver
(:func:`repro.sweep.resolver.run_scenario`), so ``--json`` on any of
them prints the exact spec(s) a run would execute — feed that file back
through ``grid --file`` to reproduce it, serially or across cores.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.cluster.topology import parse_config
from repro.metrics import format_table, render_allocation_history
from repro.sweep.experiments import (
    CHECKPOINT_SMOKE_SIZES,
    CHECKPOINT_SMOKE_TRANSITIONS,
    ablation_grid,
    ablation_smoke_grid,
    checkpoint_grid,
    summarize_ablation,
    summarize_checkpoint,
)
from repro.sweep.resolver import run_scenario
from repro.sweep.runner import SweepResult, SweepRunner, sweep_scenarios
from repro.sweep.spec import ScenarioSpec
from repro.workloads import make_application
from repro.workloads.paper import PROCESSOR_CONFIGS


def _policy_fields(args) -> dict:
    """Map the policy flags onto registry names + params."""
    threshold = getattr(args, "threshold", 0.0)
    fields = {"sweet_spot": "simple", "sweet_spot_params": ()}
    if threshold > 0:
        fields = {"sweet_spot": "threshold",
                  "sweet_spot_params": (("threshold", threshold),)}
    fields["expansion"] = ("greedy" if getattr(args, "greedy", False)
                           else "next-larger")
    return fields


def _emit_specs(specs: list[ScenarioSpec]) -> int:
    """``--json``: print the spec(s) instead of running them."""
    payload = [s.to_dict() for s in specs]
    print(json.dumps(payload[0] if len(payload) == 1 else payload,
                     indent=2))
    return 0


def _turnaround_table(static_stats, dynamic_stats,
                      title: str = "Job turn-around time") -> str:
    """Table 4/5 comparison straight from ScenarioResult.job_stats."""
    dyn = {name: ta for name, _s, _a, ta, _r in dynamic_stats}
    rows = []
    for name, size, _arrival, ta, _rd in static_stats:
        s_ta = ta if ta is not None else float("nan")
        d_ta = dyn.get(name)
        d_ta = d_ta if d_ta is not None else float("nan")
        rows.append([name, size, s_ta, d_ta, s_ta - d_ta])
    headers = ["Job", "Initial procs", "Static (s)", "Dynamic (s)",
               "Difference (s)"]
    return format_table(headers, rows, title=title)


# ---------------------------------------------------------------------------
def run_spec(args) -> ScenarioSpec:
    return ScenarioSpec(
        kind="schedule", workload="single", app=args.app, size=args.size,
        start=parse_config(args.start), iterations=args.iterations,
        num_processors=args.procs, dynamic=not args.static,
        **_policy_fields(args))


def cmd_run(args) -> int:
    """One resizable job under the framework."""
    spec = run_spec(args)
    if args.json:
        return _emit_specs([spec])
    result = run_scenario(spec)
    name, log = result.iteration_logs[0]
    rows = []
    prev = None
    for it, config, t, redist in log:
        rows.append([it, f"{config[0]}x{config[1]}",
                     config[0] * config[1], t,
                     None if prev is None else prev - t, redist])
        prev = t
    print(format_table(
        ["iter", "grid", "procs", "time (s)", "dT (s)", "redist (s)"],
        rows, title=f"{name} under "
        f"{'static' if args.static else 'dynamic'} scheduling"))
    _name, _size, _arrival, turnaround, redist = result.job_stats[0]
    print(f"\nturn-around {turnaround:.1f} s, "
          f"redistribution {redist:.1f} s, "
          f"utilization {result.utilization:.1%}")
    return 0


def workload_specs(args) -> list[ScenarioSpec]:
    return [ScenarioSpec(kind="schedule", workload=args.which,
                         dynamic=dynamic, iterations=args.iterations,
                         label=f"{args.which}:"
                               f"{'dynamic' if dynamic else 'static'}")
            for dynamic in (False, True)]


def cmd_workload(args) -> int:
    """The paper's W1/W2 job mixes, static vs dynamic."""
    specs = workload_specs(args)
    if args.json:
        return _emit_specs(specs)
    static, dynamic = (run_scenario(s) for s in specs)
    print(render_allocation_history(dynamic.timeline_recorder()))
    print()
    print(_turnaround_table(static.job_stats, dynamic.job_stats,
                            title=f"{args.which.upper()} turn-around"))
    print(f"\nutilization: static {static.utilization:.1%}, "
          f"dynamic {dynamic.utilization:.1%}")
    return 0


def sweep_specs(args) -> list[ScenarioSpec]:
    key = (args.app.upper() if args.app != "mm" else "MM", args.size)
    configs = PROCESSOR_CONFIGS.get(key)
    if configs is None:
        app0 = make_application(args.app, args.size, iterations=1)
        configs = app0.legal_configs(args.procs)
    return [ScenarioSpec(kind="static", app=args.app, size=args.size,
                         start=config, iterations=1)
            for config in configs
            if config[0] * config[1] <= args.procs]


def cmd_sweep(args) -> int:
    """Static iteration time at every legal configuration (Fig 2a)."""
    specs = sweep_specs(args)
    if args.json:
        return _emit_specs(specs)
    sweep = sweep_scenarios(specs, max_workers=args.workers)
    rows = [[f"{r.spec.start[0]}x{r.spec.start[1]}",
             r.spec.start[0] * r.spec.start[1],
             r.metric("mean_iteration_time")]
            for r in sweep.scenarios]
    print(format_table(["grid", "procs", "iteration time (s)"], rows,
                       title=f"{args.app}({args.size}) scaling sweep"))
    for err in sweep.errors:
        print(f"  {err.name}: {err.phase}: {err.error}")
    return 0 if sweep.ok else 1


def synth_spec(args) -> ScenarioSpec:
    return ScenarioSpec(
        kind="schedule", workload="synthetic", seed=args.seed,
        num_jobs=args.jobs, mean_interarrival=args.interarrival,
        max_initial=min(16, args.procs), num_processors=args.procs,
        iterations=args.iterations, dynamic=not args.static)


def cmd_synth(args) -> int:
    """A synthetic job mix through the scheduler."""
    spec = synth_spec(args)
    if args.json:
        return _emit_specs([spec])
    result = run_scenario(spec)
    rows = [[name, size, arrival, ta]
            for name, size, arrival, ta, _rd in result.job_stats]
    print(format_table(["job", "initial", "arrival (s)",
                        "turn-around (s)"], rows,
                       title=f"synthetic mix (seed {args.seed})"))
    print(f"\nutilization {result.utilization:.1%}")
    return 0


# ---------------------------------------------------------------------------
def grid_specs(args) -> tuple[list[ScenarioSpec], dict[str, slice]]:
    """The spec list for ``grid`` plus named slices into it."""
    if args.file:
        payload = json.loads(pathlib.Path(args.file).read_text())
        if isinstance(payload, dict):
            payload = [payload]
        specs = [ScenarioSpec.from_dict(d) for d in payload]
        return specs, {"file": slice(0, len(specs))}
    specs: list[ScenarioSpec] = []
    sections: dict[str, slice] = {}
    if args.which in ("ckpt", "all"):
        part = (checkpoint_grid(CHECKPOINT_SMOKE_SIZES,
                                transitions=CHECKPOINT_SMOKE_TRANSITIONS)
                if args.smoke else checkpoint_grid())
        sections["ckpt"] = slice(len(specs), len(specs) + len(part))
        specs.extend(part)
    if args.which in ("ablation", "all"):
        part = ablation_smoke_grid() if args.smoke else ablation_grid()
        sections["ablation"] = slice(len(specs), len(specs) + len(part))
        specs.extend(part)
    return specs, sections


def cmd_grid(args) -> int:
    """Experiment grids fanned across worker processes."""
    specs, sections = grid_specs(args)
    if args.json:
        return _emit_specs(specs)
    sweep = SweepRunner(args.workers, timeout=args.timeout).run(specs)

    parallel = {
        "workers": sweep.workers,
        "wall_s": sweep.wall_time,
        "scenarios": len(specs),
        "errors": len(sweep.errors),
    }

    payload: dict = {"smoke": bool(args.smoke),
                     "grid": args.which if not args.file else "file",
                     "scenarios": len(specs),
                     "parallel": parallel}
    if "ckpt" in sections:
        payload["checkpoint"] = summarize_checkpoint(
            SweepResult(results=sweep.results[sections["ckpt"]]))
    if "ablation" in sections:
        payload["ablation"] = summarize_ablation(
            SweepResult(results=sweep.results[sections["ablation"]]))
    if "file" in sections:
        payload["metrics"] = sweep.metrics_dict()

    _print_grid_report(payload, sweep)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    return 0 if sweep.ok else 1


def _print_grid_report(payload: dict, sweep: SweepResult) -> None:
    ckpt = payload.get("checkpoint")
    if ckpt and ckpt.get("cases"):
        rows = [[c["size"], c["transition"], c["redistribution_s"],
                 c["checkpoint_s"], c["ratio"]] for c in ckpt["cases"]]
        print(format_table(
            ["size", "transition", "redist (s)", "checkpoint (s)",
             "ratio"], rows,
            title="checkpoint/restart vs redistribution"))
        lo, hi = ckpt["paper_band"]
        print(f"ratio {ckpt['ratio_min']:.2f}-{ckpt['ratio_max']:.2f}x "
              f"(geomean {ckpt['ratio_geomean']:.2f}x), paper band "
              f"{lo:g}-{hi:g}x: "
              f"{'IN BAND' if ckpt['in_band'] else 'OUT OF BAND'}")
        print()
    ablation = payload.get("ablation")
    if ablation and ablation["cells"]:
        rows = [[c["label"], c["mean_turnaround_s"],
                 f"{c['utilization']:.1%}", c["makespan_s"]]
                for c in ablation["cells"]]
        print(format_table(
            ["scenario", "mean turn-around (s)", "utilization",
             "makespan (s)"], rows, title="policy x workload ablation"))
        print()
    par = payload["parallel"]
    print(f"{par['scenarios']} scenarios, {par['workers']} worker(s), "
          f"{par['wall_s']:.2f} s wall")
    for err in sweep.errors:
        print(f"  ERROR {err.name}: {err.phase}: {err.error}")


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one resizable job")
    p_run.add_argument("app", choices=["lu", "mm", "jacobi", "fft",
                                       "masterworker"])
    p_run.add_argument("--size", type=int, default=12000)
    p_run.add_argument("--start", default="1x2",
                       help="initial grid, e.g. 1x2 or 4")
    p_run.add_argument("--procs", type=int, default=36)
    p_run.add_argument("--iterations", type=int, default=10)
    p_run.add_argument("--static", action="store_true")
    p_run.add_argument("--threshold", type=float, default=0.0,
                       help="sweet-spot improvement threshold (0 = "
                            "paper's any-improvement rule)")
    p_run.add_argument("--greedy", action="store_true",
                       help="greedy expansion instead of next-larger")
    p_run.add_argument("--json", action="store_true",
                       help="print the scenario spec instead of running")
    p_run.set_defaults(fn=cmd_run)

    p_wl = sub.add_parser("workload", help="run the paper's W1/W2")
    p_wl.add_argument("which", choices=["w1", "w2"])
    p_wl.add_argument("--iterations", type=int, default=10)
    p_wl.add_argument("--json", action="store_true",
                      help="print the scenario specs instead of running")
    p_wl.set_defaults(fn=cmd_workload)

    p_sweep = sub.add_parser("sweep", help="static scaling sweep")
    p_sweep.add_argument("app", choices=["lu", "mm", "jacobi", "fft"])
    p_sweep.add_argument("--size", type=int, default=12000)
    p_sweep.add_argument("--procs", type=int, default=50)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = in-process)")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the scenario specs instead of "
                              "running")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_synth = sub.add_parser("synth", help="synthetic workload")
    p_synth.add_argument("--jobs", type=int, default=6)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--procs", type=int, default=36)
    p_synth.add_argument("--iterations", type=int, default=5)
    p_synth.add_argument("--interarrival", type=float, default=200.0)
    p_synth.add_argument("--static", action="store_true")
    p_synth.add_argument("--json", action="store_true",
                         help="print the scenario spec instead of "
                              "running")
    p_synth.set_defaults(fn=cmd_synth)

    p_grid = sub.add_parser(
        "grid", help="experiment grids across worker processes")
    p_grid.add_argument("which", nargs="?", default="all",
                        choices=["ckpt", "ablation", "all"],
                        help="which built-in grid to run")
    p_grid.add_argument("--file",
                        help="JSON file of scenario spec dict(s) to run "
                             "instead of a built-in grid")
    p_grid.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: all cores)")
    p_grid.add_argument("--timeout", type=float, default=None,
                        help="per-scenario timeout in seconds")
    p_grid.add_argument("--smoke", action="store_true",
                        help="CI-sized grid")
    p_grid.add_argument("--out",
                        help="write the summary JSON artifact here")
    p_grid.add_argument("--json", action="store_true",
                        help="print the scenario specs instead of "
                             "running")
    p_grid.set_defaults(fn=cmd_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
