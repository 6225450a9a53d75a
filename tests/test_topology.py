"""Unit + property tests for processor-grid topology arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.topology import (
    config_size,
    legal_configs_for,
    next_larger_config,
    parse_config,
)


class TestParseConfig:
    def test_grid(self):
        assert parse_config("4x5") == (4, 5)
        assert parse_config(" 2X3 ") == (2, 3)

    def test_flat(self):
        assert parse_config("20") == (1, 20)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parse_config("0x4")


class TestLegalConfigs:
    def test_flat_divisors(self):
        configs = legal_configs_for(8000, 50, topology="flat", min_procs=4)
        sizes = [config_size(c) for c in configs]
        # Table 2, Jacobi row: 4, 8, 10, 16, 20, 32, 40, 50
        for expected in (4, 8, 10, 16, 20, 32, 40, 50):
            assert expected in sizes
        assert all(8000 % s == 0 for s in sizes)

    def test_grid_configs_divide(self):
        configs = legal_configs_for(14000, 50, topology="grid")
        assert (5, 7) in configs
        assert (7, 7) in configs
        for pr, pc in configs:
            assert 14000 % pr == 0 and 14000 % pc == 0
            assert pr <= pc <= 2 * pr

    def test_sorted_by_size(self):
        configs = legal_configs_for(24000, 50, topology="grid")
        sizes = [config_size(c) for c in configs]
        assert sizes == sorted(sizes)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            legal_configs_for(100, 10, topology="ring")

    @given(st.sampled_from([8000, 12000, 14000, 16000, 20000, 21000, 24000]),
           st.integers(min_value=4, max_value=64))
    def test_property_all_dims_divide(self, n, max_procs):
        for pr, pc in legal_configs_for(n, max_procs, topology="grid"):
            assert n % pr == 0 and n % pc == 0
            assert pr * pc <= max_procs


class TestNextConfig:
    CONFIGS = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5),
               (5, 5), (5, 6), (6, 6), (6, 8)]

    def test_next_larger_respects_availability(self):
        nxt = next_larger_config(self.CONFIGS, (2, 2), available=2)
        assert nxt == (2, 3)
        nxt = next_larger_config(self.CONFIGS, (2, 2), available=1)
        assert nxt is None

    def test_next_larger_none_at_top(self):
        assert next_larger_config(self.CONFIGS, (6, 8), available=100) is None
