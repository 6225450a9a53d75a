"""The import contract: numpy is the only third-party module the
simulator loads.

``import repro`` and every phantom or materialized path the end-to-end
workloads drive must leave scipy and networkx unloaded; each is
imported on first use by its one caller (the materialized LU
triangular solve, :func:`repro.redist.edge_coloring_schedule`).  The
pytest process has long imported both, so the contract is checked in a
fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys

    HEAVY = ("scipy", "networkx")

    def assert_light(where):
        loaded = [name for name in HEAVY if name in sys.modules]
        assert not loaded, f"{where} imported {loaded}"
        print("light:", where)

    import repro
    assert_light("import repro")

    from repro.sweep.experiments import checkpoint_grid

    res = repro.run(repro.ScenarioSpec(kind="schedule", workload="w1",
                                       dynamic=True, iterations=2))
    assert res.ok, res
    assert_light("repro.run W1 dynamic")

    specs = checkpoint_grid(transitions=1)[:2]
    assert repro.run(specs[0]).ok
    assert_light("repro.run checkpoint_grid spec")

    sweep = repro.sweep(specs, max_workers=2)
    assert not sweep.errors and len(sweep.results) == 2
    assert_light("repro.sweep on 2 workers")

    import numpy as np
    from repro import redist
    from repro.blacs import ProcessGrid
    from repro.cluster.machine import Machine, MachineSpec
    from repro.darray import Descriptor, DistributedMatrix
    from repro.mpi import World
    from repro.simulate import Environment

    env = Environment()
    world = World(env, Machine(env, MachineSpec(num_nodes=4)),
                  launch_overhead=0.0)
    original = np.arange(48 * 48, dtype=np.float64).reshape(48, 48)
    dm = DistributedMatrix.from_global(
        original, Descriptor(m=48, n=48, mb=8, nb=8, grid=ProcessGrid(1, 2)))
    out = {}

    def main(comm):
        res = yield from redist.redistribute(comm, dm, ProcessGrid(2, 2))
        if comm.rank == 0:
            out["dm"] = res.matrix

    world.launch(main, processors=list(range(4)), name="redist")
    env.run()
    assert np.array_equal(out["dm"].to_global(), original)
    assert_light("materialized redistribute 1x2 -> 2x2")

    from repro.core.job import reset_job_ids
    from repro.workloads.generator import WorkloadGenerator

    reset_job_ids()
    fw = repro.ReshapeFramework(env=Environment(), num_processors=36,
                                dynamic=True)
    jobs = WorkloadGenerator().submit_all(
        fw, WorkloadGenerator(11).generate_scale(200), iterations=1)
    fw.run()
    assert all(job.turnaround is not None for job in jobs.values())
    assert_light("generate_scale(200) through ReshapeFramework")

    from repro.api import run_static
    from repro.apps import LUApplication

    lu = run_static(LUApplication(64, block=8, iterations=1,
                                  materialized=True),
                    (2, 2), machine_spec=MachineSpec(num_nodes=4),
                    verify=True)
    assert lu.verified is True
    assert "scipy" in sys.modules
    print("heavy: materialized LU loads scipy")

    sched = redist.edge_coloring_schedule(100, 4, 6)
    assert redist.verify_schedule_contention_free(sched)
    assert redist.verify_schedule_complete(sched)
    assert "networkx" in sys.modules
    print("heavy: edge_coloring_schedule loads networkx")
""")


def test_only_numpy_loads_on_simulation_paths():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("light:") == 6
    assert proc.stdout.count("heavy:") == 2
