"""Synthetic fixed-work application for scheduler scale studies.

The paper's five applications exercise the communication substrate; the
10k-job scheduler studies need the opposite — a job whose *simulation*
cost is a handful of events, so tens of thousands of them stress the
event kernel and the scheduler wake path rather than the MPI layer.
Each iteration charges a fixed per-rank compute time (perfect speedup:
``serial_seconds / ranks``) and nothing else; there is no global data,
so resizes never redistribute anything.

Used by :meth:`repro.workloads.generator.WorkloadGenerator.generate_scale`
(the ``sched_scale`` workload of ``benchmarks/e2e``).
"""

from __future__ import annotations

from typing import Generator

from repro.apps.base import AppContext, Application
from repro.blacs import ProcessGrid
from repro.darray import DistributedMatrix


class SyntheticApplication(Application):
    """Fixed-duration iterations on a flat grid; minimal event count.

    ``problem_size`` is the serial work of one iteration in seconds
    scaled by 1000 (so it remains an int as the base class expects):
    ``problem_size=500`` means one iteration costs 0.5 simulated
    seconds on one processor.
    """

    topology = "flat"
    needs_blacs = False

    @property
    def name(self) -> str:
        return "Synthetic"

    def default_block(self) -> int:
        return 1

    @property
    def serial_seconds(self) -> float:
        return self.problem_size / 1000.0

    def create_data(self, grid: ProcessGrid) -> dict[str, DistributedMatrix]:
        return {}  # nothing to redistribute

    def legal_configs(self, max_procs: int,
                      min_procs: int = 1) -> list[tuple[int, int]]:
        if self.allowed_configs is not None:
            return super().legal_configs(max_procs, min_procs)
        return [(1, p) for p in range(max(1, min_procs), max_procs + 1)]

    def iterate(self, ctx: AppContext) -> Generator:
        # One timeout per rank: the whole iteration is a single event.
        yield ctx.env.sleep(self.serial_seconds / ctx.size)

    def closed_form_duration(self, config, machine) -> float:
        """Perfect-speedup compute with no communication, assuming the
        configuration never changes.  The framework honors that
        assumption by only booking jobs closed-form when no resize
        decision could fire (single iteration, or static scheduling);
        otherwise the ranks execute and resize points stay live."""
        ranks = config[0] * config[1]
        return self.iterations * self.serial_seconds / ranks
