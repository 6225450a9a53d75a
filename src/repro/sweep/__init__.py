"""Parallel sweep harness over declarative experiment specs.

The paper's headline results are grids — scheduling strategy x workload
x machine — and this package makes grids cheap:

* :class:`ScenarioSpec` (:mod:`repro.sweep.spec`): a frozen, picklable,
  JSON-round-trippable description of one experiment.
* :func:`run_scenario` (:mod:`repro.sweep.resolver`): the pure resolver
  spec -> :class:`ScenarioResult`; every construction surface (CLI,
  benchmarks, ``repro.run``) goes through it.
* :class:`SweepRunner` (:mod:`repro.sweep.runner`): fans a grid of
  specs across worker processes in contiguous chunks, with crash/timeout
  containment and a deterministic spec-ordered merge.
* :mod:`repro.sweep.experiments`: the first real consumers — the
  paper's checkpoint/restart-vs-redistribution comparison (§4.1.2,
  4.5-14.5x) and a policy x workload ablation grid.

See docs/sweep.md for the spec schema and the determinism contract.
"""

from repro.sweep.experiments import (
    ablation_grid,
    ablation_smoke_grid,
    checkpoint_grid,
    summarize_ablation,
    summarize_checkpoint,
)
from repro.sweep.resolver import (
    build_framework,
    run_scenario,
    scenario_jobs,
)
from repro.sweep.runner import SweepResult, SweepRunner, sweep_scenarios
from repro.sweep.spec import (
    ScenarioError,
    ScenarioOutcome,
    ScenarioResult,
    ScenarioSpec,
)

__all__ = [
    "ScenarioError",
    "ScenarioOutcome",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepResult",
    "SweepRunner",
    "ablation_grid",
    "ablation_smoke_grid",
    "build_framework",
    "checkpoint_grid",
    "run_scenario",
    "scenario_jobs",
    "summarize_ablation",
    "summarize_checkpoint",
    "sweep_scenarios",
]
