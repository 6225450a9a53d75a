"""The paper workloads on both execution paths: same schedule, same clocks.

W1 (Fig 4) and W2 (Fig 5) run under dynamic scheduling twice: once with
the ``World`` fast-path switch off and point-to-point on the event-chain
reference (``tests/oracles/p2p.py``), so every message and collective
takes the generator path over the event chain, and once with it on
(network replay, replayed collectives, closed-form LU walks, the SUMMA
live call).  The fast paths are clock-equivalent by contract, so the
scheduler must take the same decisions, the network must book the same
traffic and the experiment must end at the same instant.  Individual timeline times are
held to 1e-6 relative; they differ by at most 1e-8 on W1 and 1.2e-10 on
W2 (``docs/phantom.md``, "Known deviations").  With two iterations every
job expands after its first, so no iteration is replayed here; that
path is ``tests/test_iteration_replay.py``'s.
"""

from __future__ import annotations

import pytest

from repro.core import ReshapeFramework
from repro.workloads import build_workload1, build_workload2
from repro.workloads.paper import WORKLOAD1_PROCESSORS, WORKLOAD2_PROCESSORS

pytestmark = pytest.mark.usefixtures("p2p_oracle")


def run(build, processors: int, fastpath: bool):
    fw = ReshapeFramework(num_processors=processors, dynamic=True)
    fw.world.fastpath = fastpath
    jobs = build(fw, iterations=2)
    fw.run()
    assert all(job.turnaround is not None for job in jobs.values())
    stats = fw.machine.network.stats
    return fw.timeline.changes, (stats.messages, stats.bytes), fw.env.now


@pytest.mark.parametrize("build, processors", [
    (build_workload1, WORKLOAD1_PROCESSORS),
    (build_workload2, WORKLOAD2_PROCESSORS),
], ids=["w1", "w2"])
def test_fast_paths_match_generator_path(build, processors):
    slow, slow_traffic, slow_end = run(build, processors, fastpath=False)
    fast, fast_traffic, fast_end = run(build, processors, fastpath=True)

    def decisions(changes):
        return [(c.job_name, c.nprocs, c.config, c.reason) for c in changes]

    assert decisions(fast) == decisions(slow)
    assert any(c.reason in ("expand", "shrink") for c in slow)
    assert fast_traffic == slow_traffic
    assert fast_end == slow_end
    for a, b in zip(slow, fast):
        assert b.time == pytest.approx(a.time, rel=1e-6, abs=0.0)
