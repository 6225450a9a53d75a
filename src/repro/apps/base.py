"""Application base class and the per-rank execution context."""

from __future__ import annotations

import abc
from typing import Generator, Optional

import numpy as np

from repro.blacs import BlacsContext, ProcessGrid
from repro.cluster.machine import Machine
from repro.cluster.topology import legal_configs_for
from repro.darray import DistributedMatrix
from repro.mpi.comm import Comm


class AppContext:
    """What one rank of a running application sees.

    Holds the current communicator/BLACS context/data — all of which the
    resizing library swaps out at a resize point — plus helpers to charge
    local computation to the simulated clock.
    """

    def __init__(self, comm: Comm, blacs: Optional[BlacsContext],
                 data: dict[str, DistributedMatrix], machine: Machine):
        self.comm = comm
        self.blacs = blacs
        self.data = data
        self.machine = machine
        #: Set by runtimes that drive iterations between barriers (the
        #: resizing library's iteration loop and ``run_static`` both
        #: do).  :meth:`Application.replay_iterations` requires it — an
        #: unanchored iteration's duration depends on arbitrary caller
        #: state and must not be replayed.
        self.iteration_anchored = False

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def env(self):
        return self.comm.env

    @property
    def materialized(self) -> bool:
        """True when any global array holds real data (the data dict can
        also carry plain bookkeeping entries, e.g. replay caches)."""
        return any(dm.materialized for dm in self.data.values()
                   if isinstance(dm, DistributedMatrix))

    def charge(self, flops: float) -> Generator:
        """Occupy this rank's processor for ``flops`` of local work."""
        node = self.machine.nodes[self.comm.node_of(self.comm.rank)]
        yield self.env.sleep(flops / node.flop_rate)

    def charge_memory(self, nbytes: float) -> Generator:
        """One pass over ``nbytes`` of local memory (copies, transposes)."""
        node = self.machine.nodes[self.comm.node_of(self.comm.rank)]
        yield self.env.sleep(nbytes / node.memory_bandwidth)

    def shared_object(self, factory) -> Generator:
        """SPMD-safe shared object: rank 0 builds it, everyone gets it.

        The simulator runs all ranks in one OS process, so "distributed"
        objects (e.g. a working copy of a DistributedMatrix) are one
        Python object shared by reference; the broadcast that shares the
        reference is charged as a real (tiny) collective.
        """
        obj = factory() if self.comm.rank == 0 else None
        obj = yield from self.comm.bcast(obj, root=0)
        return obj

    def repeat_cost(self, elapsed_once: float, count: int) -> Generator:
        """Charge ``count - 1`` repetitions of an already-measured cost.

        Pattern for phantom-mode kernels: perform one representative
        communication round for real (so its cost reflects current
        contention), measure it, then charge the remaining ``count - 1``
        identical rounds as a single timeout.  The simulation is
        deterministic, so one sample of an identical op is exact.
        """
        if count > 1 and elapsed_once > 0:
            yield self.env.sleep((count - 1) * elapsed_once)
        elif count <= 1:
            return


class Application(abc.ABC):
    """An iterative, resizable SPMD application (the paper's model).

    Concrete applications define their data layout, one outer iteration,
    and their legal processor configurations.  The ReSHAPE runtime calls
    :meth:`iterate` once per outer iteration on every rank and handles
    resize points between iterations.
    """

    #: "grid" for nearly-square 2-D topologies (LU, MM); "flat" for 1-D.
    topology: str = "grid"

    #: Whether the runtime must build a BLACS context for this
    #: application's ranks.  Dense-matrix kernels need one; pure
    #: compute/self-scheduling apps can skip the (simulated) context
    #: setup collectives.  Only new applications opt out — flipping an
    #: existing app would change its startup cost and with it every
    #: recorded timeline.
    needs_blacs: bool = True

    def __init__(self, problem_size: int, *, block: int = 0,
                 iterations: int = 10, materialized: bool = False,
                 allowed_configs: Optional[list[tuple[int, int]]] = None,
                 dtype=np.float64):
        if problem_size <= 0:
            raise ValueError("problem size must be positive")
        self.problem_size = problem_size
        self.block = block or self.default_block()
        self.iterations = iterations
        self.materialized = materialized
        #: Explicit legal configurations (e.g. the paper's Table 2 rows);
        #: None means "derive from divisibility rules".
        self.allowed_configs = allowed_configs
        self.dtype = np.dtype(dtype)

    # -- hooks ------------------------------------------------------------
    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short name, e.g. ``"LU"``."""

    def default_block(self) -> int:
        """Default block size when the caller does not pin one."""
        return max(1, self.problem_size // 100)

    @abc.abstractmethod
    def create_data(self, grid: ProcessGrid) -> dict[str, DistributedMatrix]:
        """Allocate the application's global data on ``grid``."""

    @abc.abstractmethod
    def iterate(self, ctx: AppContext) -> Generator:
        """One outer iteration, executed SPMD by every rank."""

    def replay_iterations(self, ctx: AppContext, body, *, key=(),
                          confirm: int = 1) -> Generator:
        """Run one outer iteration, replaying measured durations when
        that is provably equivalent (the measure-once trick PR 2 built
        for LU, generalized).

        ``body`` is a zero-argument callable returning the iteration
        generator.  In phantom mode, when the runtime barriers around
        iterations (``ctx.iteration_anchored``) and the communicator
        rides the phantom fast path (deterministic simulation, no
        tracing), an iteration's per-rank duration is a pure function of
        the processor configuration — so after ``confirm`` fully
        measured iterations at a configuration (whose last two per-rank
        duration vectors must be equal when ``confirm > 1``) the
        remaining iterations advance the clock in O(1) per rank.
        Replayed iterations book no traffic (documented in
        ``docs/phantom.md``) and return ``None``; anything else — a
        materialized run, a custom non-anchored driver, the fast path
        switched off, unstable measurements — runs ``body`` live.

        The decision is SPMD-safe: the shared cache is complete for
        iteration ``k-1`` before any rank enters iteration ``k`` (the
        runtime barrier guarantees it), so every rank takes the same
        branch.
        """
        comm = ctx.comm
        fast = None if (self.materialized or ctx.materialized) \
            else comm._fastcoll()
        if (fast is None or not fast.exclusive
                or not ctx.iteration_anchored):
            # fast.exclusive: ranks sharing NICs with other jobs
            # (cpus_per_node > 1) make iteration durations depend on
            # concurrent traffic — never replay those.
            result = yield from body()
            return result
        cache = ctx.data.setdefault("_iter_replay", {})
        ckey = (self.name, tuple(comm.processors),
                None if ctx.blacs is None else ctx.blacs.grid.shape,
                *key)
        runs = cache.setdefault(ckey, [])
        size = comm.size
        done = [r for r in runs if len(r) == size]
        if len(done) >= confirm:
            last = done[-1]
            if confirm == 1 or done[-2] == last:
                if last[comm.rank] > 0:
                    yield ctx.env.sleep(last[comm.rank])
                return None
        if len(runs) == len(done):
            runs.append({})
        slot = runs[-1]
        t0 = ctx.env.now
        result = yield from body()
        slot[comm.rank] = ctx.env.now - t0
        return result

    def legal_configs(self, max_procs: int,
                      min_procs: int = 1) -> list[tuple[int, int]]:
        """Processor configurations this problem size can run on."""
        if self.allowed_configs is not None:
            return sorted(
                (c for c in self.allowed_configs
                 if min_procs <= c[0] * c[1] <= max_procs),
                key=lambda c: (c[0] * c[1], c))
        return legal_configs_for(self.problem_size, max_procs,
                                 topology=self.topology,
                                 min_procs=min_procs)

    def flops_per_iteration(self) -> float:
        """Total flops of one outer iteration (for documentation/models)."""
        return 0.0

    def closed_form_duration(self, config: tuple[int, int],
                             machine: Machine) -> Optional[float]:
        """Whole-run duration on ``config``, when it is a closed form.

        Applications whose execution involves no communication (e.g.
        :class:`~repro.apps.synthetic.SyntheticApplication`) can report
        their runtime here; the framework then books the job as a
        single completion event instead of launching rank processes —
        the scheduler-scale analogue of the phantom fast paths.  The
        framework only takes this path when no resize decision could
        alter the job's allocation (a single-iteration job, or static
        scheduling); a multi-iteration job under dynamic scheduling
        executes its ranks so its resize points stay live.  ``None``
        (the default) means "must be executed".
        """
        return None

    def verify(self, data: dict[str, DistributedMatrix]) -> bool:
        """Numeric check after a run (materialized mode); default: trivial."""
        return True

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} n={self.problem_size} "
                f"block={self.block}>")
