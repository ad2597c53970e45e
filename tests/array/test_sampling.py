"""Spawn-keyed column draws: determinism, CRN, column independence."""

import numpy as np
import pytest

from repro.array.sampling import column_aging, column_mismatch
from repro.circuits.sense_amp import build_issa, build_nssa
from repro.models import Environment

MC = 8
SEED = 2017


class TestColumnMismatch:
    def test_deterministic_and_order_free(self):
        ratios = build_issa().circuit.mosfet_ratios()
        draws = column_mismatch(ratios, MC, SEED, 0)
        reordered = column_mismatch(dict(reversed(list(ratios.items()))),
                                    MC, SEED, 0)
        for name in ratios:
            assert np.array_equal(draws[name], reordered[name])

    def test_columns_are_independent(self):
        ratios = build_issa().circuit.mosfet_ratios()
        col0 = column_mismatch(ratios, MC, SEED, 0)
        col1 = column_mismatch(ratios, MC, SEED, 1)
        assert all(not np.array_equal(col0[n], col1[n]) for n in ratios)

    def test_common_random_numbers_across_schemes(self):
        """Devices the two schemes share draw identical populations."""
        nssa = build_nssa().circuit.mosfet_ratios()
        issa = build_issa().circuit.mosfet_ratios()
        shared = sorted(set(nssa) & set(issa))
        assert len(shared) >= 8  # the whole latch core is common
        nssa_draws = column_mismatch(nssa, MC, SEED, 0)
        issa_draws = column_mismatch(issa, MC, SEED, 0)
        for name in shared:
            assert np.array_equal(nssa_draws[name], issa_draws[name])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            column_mismatch({}, 0, SEED, 0)
        with pytest.raises(ValueError):
            column_mismatch({}, MC, SEED, -1)


class TestColumnAging:
    def test_fresh_columns_have_no_shifts(self):
        design = build_nssa()
        env = Environment.nominal()
        assert column_aging(design, "80r0", 0.0, env, MC, SEED, 0) == {}
        assert column_aging(design, None, 1e8, env, MC, SEED, 0) == {}

    def test_aged_columns_are_column_keyed(self):
        design = build_nssa()
        env = Environment.nominal()
        col0 = column_aging(design, "80r0", 1e8, env, MC, SEED, 0)
        col0_again = column_aging(design, "80r0", 1e8, env, MC, SEED, 0)
        col1 = column_aging(design, "80r0", 1e8, env, MC, SEED, 1)
        assert col0  # stressed devices did shift
        stressed = [n for n, v in col0.items() if np.any(v != 0.0)]
        for name in col0:
            assert np.array_equal(col0[name], col0_again[name])
        assert any(not np.array_equal(col0[n], col1[n])
                   for n in stressed)

