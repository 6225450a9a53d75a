"""The generalized measure-once iteration replay (Application.replay_iterations).

Covers the contract around the helper itself; the clock-equivalence of
the apps that adopted it (LU, MM) is pinned in
``tests/test_fastcoll_equivalence.py``.
"""

from repro.api import run_static
from repro.apps import MatMulApplication
from repro.apps.base import AppContext, Application
from repro.blacs import BlacsContext, ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor, DistributedMatrix
from repro.mpi import Phantom, World
from repro.simulate import Environment


class CountingApp(Application):
    """Phantom app whose iteration body counts its live executions."""

    topology = "flat"

    def __init__(self, *args, confirm=1, **kwargs):
        kwargs.setdefault("materialized", False)
        super().__init__(*args, **kwargs)
        self.body_runs = 0
        self.confirm = confirm

    @property
    def name(self) -> str:
        return "Counting"

    def create_data(self, grid):
        desc = Descriptor(m=self.problem_size, n=self.problem_size,
                          mb=self.block, nb=self.problem_size,
                          grid=ProcessGrid(grid.size, 1),
                          itemsize=self.dtype.itemsize)
        return {"A": DistributedMatrix(desc, materialized=False)}

    def _body(self, ctx):
        if ctx.comm.rank == 0:
            self.body_runs += 1
        result = yield from ctx.comm.allreduce(Phantom(1000))
        return result

    def iterate(self, ctx):
        yield from self.replay_iterations(ctx, lambda: self._body(ctx),
                                          confirm=self.confirm)


def test_anchored_runtime_replays():
    """Driven by run_static (barriers around iterations), the body runs
    ``confirm`` times and every further iteration is replayed."""
    app = CountingApp(64, block=8, iterations=6)
    result = run_static(app, (4, 1),
                        machine_spec=MachineSpec(num_nodes=4))
    assert app.body_runs == 1
    assert len(result.iteration_times) == 6
    # Replayed iterations charge exactly the measured duration.
    times = result.iteration_times
    assert times[1:] == [times[1]] * 5


def test_confirm_two_measures_twice():
    app = CountingApp(64, block=8, iterations=6, confirm=2)
    run_static(app, (4, 1), machine_spec=MachineSpec(num_nodes=4))
    assert app.body_runs == 2


def test_unanchored_driver_declines():
    """A custom loop without the runtime's barriers must run the body
    live every iteration — replay would be unsound there."""
    app = CountingApp(64, block=8, iterations=5)
    env = Environment()
    machine = Machine(env, MachineSpec(num_nodes=4))
    world = World(env, machine, launch_overhead=0.0)
    data = app.create_data(ProcessGrid(4, 1))

    def main(comm):
        blacs = yield from BlacsContext.create(comm, 4, 1)
        ctx = AppContext(comm, blacs, data, machine)
        # No barriers, no iteration_anchored flag: decline.
        for _ in range(5):
            yield from app.iterate(ctx)

    world.launch(main, processors=list(range(4)))
    env.run()
    assert app.body_runs == 5


def test_fastpath_off_declines():
    """Without the deterministic fast path the helper must not replay
    (tracing/ablation runs need the live event traffic)."""
    app = CountingApp(64, block=8, iterations=4)
    run_static(app, (4, 1), machine_spec=MachineSpec(num_nodes=4),
               fastpath=False)
    assert app.body_runs == 4


def test_materialized_declines():
    """Real data means real per-iteration arithmetic; never replay."""
    app = MatMulApplication(48, block=12, iterations=3, materialized=True)
    result = run_static(app, (2, 2), machine_spec=MachineSpec(num_nodes=4),
                        verify=True)
    assert len(result.iteration_times) == 3
    assert result.verified is True
