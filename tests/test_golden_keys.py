"""Every end-to-end workload's inputs key an entry of ``golden.json``.

``benchmarks/e2e/run.py`` looks a workload's golden entry up by the
fingerprint of its inputs, and a miss is not an error there: the run
quietly compares each pass against its own first pass.  A change that
moves a fingerprint — a field added to or dropped from
``ScenarioSpec.to_dict()``, for example — would turn the golden check
off without a word.  This test makes that miss a failure.  It reads the
benchmark's files and writes nothing.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

E2E = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))

import workloads as wl  # noqa: E402

GOLDEN = json.loads((E2E / "golden.json").read_text())
#: The seeds ``golden.json`` covers: the default and the held-out one.
SEEDS = (11, 12)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_key_a_golden_entry(name):
    workload = wl.WORKLOADS[name]
    for seed in SEEDS if workload.seeded else SEEDS[:1]:
        key = wl.fingerprint(workload.build(seed, False))
        assert key in GOLDEN.get(name, {}), (
            f"{name} seed {seed}: inputs {key} have no golden entry")
