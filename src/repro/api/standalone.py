"""Static (fixed-configuration) application runner.

Runs an application at one processor configuration for a number of
iterations, with no scheduler in the loop — the paper's *static
scheduling* baseline, and the measurement harness for per-configuration
iteration times (Figure 2(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.apps.base import AppContext, Application
from repro.blacs import BlacsContext, ProcessGrid
from repro.cluster.machine import Machine, MachineSpec
from repro.mpi import World
from repro.simulate import Environment


@dataclass
class StaticRunResult:
    """Timing record of a fixed-configuration run."""

    config: tuple[int, int]
    iteration_times: list[float] = field(default_factory=list)
    total_time: float = 0.0
    verified: Optional[bool] = None

    @property
    def mean_iteration_time(self) -> float:
        if not self.iteration_times:
            return 0.0
        return sum(self.iteration_times) / len(self.iteration_times)


def run_static(app: Application, config: tuple[int, int], *,
               iterations: Optional[int] = None,
               machine: Optional[Machine] = None,
               env: Optional[Environment] = None,
               machine_spec: Optional[MachineSpec] = None,
               processors: Optional[Sequence[int]] = None,
               verify: bool = False,
               collective_fastpath: bool = True) -> StaticRunResult:
    """Run ``app`` on a fixed ``(pr, pc)`` grid; returns per-iteration times.

    Builds its own environment/machine unless given one.  ``processors``
    pins specific machine processors (defaults to ``0..p-1``).
    ``collective_fastpath=False`` forces the generator-collective
    reference path — cross-machine-spec ablations use it so every
    variant runs the same code path (the fast path's structural gate
    depends on the spec; see docs/phantom.md).
    """
    pr, pc = config
    nprocs = pr * pc
    own_env = env is None
    if own_env:
        env = Environment()
    if machine is None:
        machine = Machine(env, machine_spec or MachineSpec())
    if nprocs > machine.total_processors:
        raise ValueError(f"config {config} needs {nprocs} processors; "
                         f"machine has {machine.total_processors}")
    world = World(env, machine, collective_fastpath=collective_fastpath)
    iters = iterations if iterations is not None else app.iterations
    grid = ProcessGrid(pr, pc)
    data = app.create_data(grid)
    result = StaticRunResult(config=(pr, pc))
    t_start = env.now

    def main(comm):
        blacs = yield from BlacsContext.create(comm, pr, pc)
        ctx = AppContext(comm, blacs, data, machine)
        # Iterations are driven between barriers here, so measure-once
        # replay (Application.replay_iterations) is sound.
        ctx.iteration_anchored = True
        for _it in range(iters):
            yield from comm.barrier()
            t0 = env.now
            yield from app.iterate(ctx)
            yield from comm.barrier()
            if comm.rank == 0:
                result.iteration_times.append(env.now - t0)

    group = world.launch(main, processors=list(processors)
                         if processors is not None else list(range(nprocs)),
                         name=app.name)
    if own_env:
        env.run()
    else:
        for proc in group.processes:
            env.run(until=proc)
    result.total_time = env.now - t_start
    if verify:
        result.verified = app.verify(data)
    return result
