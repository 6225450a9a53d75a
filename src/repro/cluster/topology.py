"""Processor-grid topology arithmetic.

ReSHAPE applications declare a topology preference: ``grid`` applications
(LU, MM) run on nearly-square ``pr x pc`` process grids; ``flat``
applications (Jacobi, FFT, master-worker) run on 1-D sets.  The paper's
expansion rule for grid applications is: *"additional processors are
added to the smallest row or column of the existing topology"* — the
legal grids stay nearly square, and an expansion takes the next larger
one that fits.

The enumeration also enforces the paper's evenness constraint: *"the
number of processors (in each dimension in the case of rectangular
topologies) evenly divides the problem size."*
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def parse_config(text: str) -> tuple[int, int]:
    """Parse ``'4x5'`` or ``'20'`` into a grid tuple.

    A bare number means a 1-D (flat) set, returned as ``(1, p)``.
    """
    text = text.strip().lower()
    if "x" in text:
        left, right = text.split("x", 1)
        pr, pc = int(left), int(right)
    else:
        pr, pc = 1, int(text)
    if pr < 1 or pc < 1:
        raise ValueError(f"bad processor configuration {text!r}")
    return pr, pc


def config_size(config: tuple[int, int]) -> int:
    """Total processors in a grid config."""
    return config[0] * config[1]


def legal_configs_for(problem_size: int, max_procs: int, *,
                      topology: str = "grid",
                      min_procs: int = 1) -> list[tuple[int, int]]:
    """Enumerate legal processor configurations for a problem.

    ``grid`` topology: nearly-square-ish ``pr x pc`` grids (pr <= pc <=
    2*pr, mirroring Table 2's shapes) whose dimensions both divide
    ``problem_size``.  ``flat`` topology: 1-D sets whose size divides
    ``problem_size``.

    Configurations are sorted by total processor count and deduplicated.
    """
    if topology not in ("grid", "flat"):
        raise ValueError(f"unknown topology {topology!r}")
    configs: set[tuple[int, int]] = set()
    if topology == "flat":
        for p in range(min_procs, max_procs + 1):
            if problem_size % p == 0:
                configs.add((1, p))
    else:
        for pr in range(1, int(math.isqrt(max_procs)) + 1):
            if problem_size % pr != 0:
                continue
            for pc in range(pr, max_procs // pr + 1):
                if pc > 2 * pr:
                    break
                if problem_size % pc == 0 and pr * pc >= min_procs:
                    configs.add((pr, pc))
    return sorted(configs, key=lambda c: (config_size(c), c))


def next_larger_config(configs: Sequence[tuple[int, int]],
                       current: tuple[int, int],
                       available: int) -> Optional[tuple[int, int]]:
    """Smallest legal config strictly bigger than ``current`` that fits.

    ``available`` is the number of *additional* processors that can be
    granted on top of the current allocation.
    """
    cur = config_size(current)
    for cfg in sorted(configs, key=config_size):
        size = config_size(cfg)
        if size > cur and size - cur <= available:
            return cfg
    return None
