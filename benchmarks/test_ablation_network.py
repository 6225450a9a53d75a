"""Ablation: network-model features.

Quantifies which network-model features shape LU's scaling curve.  The
headline finding: for broadcast-structured dense kernels the sweet-spot
phenomenon is *latency/software-overhead driven* — removing the
contention penalty or the backplane limit barely moves LU (those two
features bite on redistribution fan-in instead, see the schedule
ablation), while the ideal network (negligible latency) scales
monotonically to 48 processors.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import run_static
from repro.cluster.machine import MachineSpec
from repro.metrics import format_table
from repro.workloads.paper import make_application

CONFIGS = [(2, 2), (3, 4), (5, 5), (6, 8)]


def scaling_curve(spec: MachineSpec) -> dict[int, float]:
    out = {}
    for config in CONFIGS:
        app = make_application("lu", 12000, iterations=1)
        # Generator path for every variant: the table was recorded on
        # it, and the fast path still moves a few digits — the 5x5
        # column through the detached walk's chain order
        # (docs/phantom.md, "Overlapping detached collectives"), one
        # ideal-network and one 48-processor entry (ROADMAP item 2).
        res = run_static(app, config, machine_spec=spec,
                         fastpath=False)
        out[config[0] * config[1]] = res.mean_iteration_time
    return out


@pytest.mark.benchmark(group="ablation-network")
def test_ablation_network_features(benchmark, report):
    base = MachineSpec()
    variants = {
        "full model": base,
        "no contention penalty": dataclasses.replace(
            base, contention_penalty=0.0),
        "no backplane limit": dataclasses.replace(
            base, backplane_bandwidth=float("inf")),
        "ideal network": dataclasses.replace(
            base, contention_penalty=0.0,
            backplane_bandwidth=float("inf"),
            latency=1e-6, software_overhead=0.0,
            nic_bandwidth=1e9),
    }
    curves = {}

    def run_all():
        for name, spec in variants.items():
            curves[name] = scaling_curve(spec)
        return curves

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    procs = sorted(curves["full model"])
    rows = [[name] + [curve[p] for p in procs]
            for name, curve in curves.items()]
    report(format_table(
        ["network model"] + [f"{p} procs" for p in procs], rows,
        title="Ablation — LU(12000) iteration time per network model"))

    # Every feature removed makes the big-grid configuration faster.
    p_big = procs[-1]
    assert curves["no backplane limit"][p_big] <= \
        curves["full model"][p_big]
    assert curves["ideal network"][p_big] < curves["full model"][p_big]
    # On the ideal network, scaling is monotone to 48 processors — the
    # sweet-spot phenomenon comes from the network model, not the code.
    ideal = curves["ideal network"]
    assert all(ideal[a] > ideal[b]
               for a, b in zip(procs, procs[1:]))
    report.flush("ablation_network")
