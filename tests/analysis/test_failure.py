"""Tests for the Eq.-3 offset-specification solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from repro.analysis.failure import failure_rate_at, offset_spec, sigma_level


class TestSigmaLevel:
    def test_paper_value(self):
        """fr = 1e-9 corresponds to ~6.1 sigma (paper Sec. II-C)."""
        assert sigma_level(1e-9) == pytest.approx(6.1, abs=0.05)

    def test_common_values(self):
        assert sigma_level(0.3173) == pytest.approx(1.0, abs=0.01)
        assert sigma_level(0.0455) == pytest.approx(2.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_level(0.0)
        with pytest.raises(ValueError):
            sigma_level(1.0)


class TestFailureRateAt:
    def test_zero_spec_always_fails(self):
        assert failure_rate_at(0.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_wide_spec_never_fails(self):
        assert failure_rate_at(100.0, 0.0, 1.0) < 1e-12

    def test_shifted_distribution_fails_more(self):
        centred = failure_rate_at(5.0, 0.0, 1.0)
        shifted = failure_rate_at(5.0, 2.0, 1.0)
        assert shifted > centred

    def test_validation(self):
        with pytest.raises(ValueError):
            failure_rate_at(1.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            failure_rate_at(-1.0, 0.0, 1.0)

    def test_degenerate_fit_rejected(self):
        """NaN/inf fit parameters (degenerate populations) must raise
        instead of propagating silently into the tables."""
        with pytest.raises(ValueError):
            failure_rate_at(1.0, float("nan"), 1.0)
        with pytest.raises(ValueError):
            failure_rate_at(1.0, 0.0, float("nan"))
        with pytest.raises(ValueError):
            failure_rate_at(1.0, 0.0, float("inf"))
        with pytest.raises(ValueError):
            failure_rate_at(1.0, 0.0, 0.0)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestStatsNormParity:
    """The ``scipy.special`` kernels give ``scipy.stats.norm``'s bits."""

    #: Standardised arguments spanning +-40 sigma.
    Z = np.linspace(-40.0, 40.0, 2001)
    #: Tail probabilities from 1e-300 to 0.5.
    P = np.geomspace(1e-300, 0.5, 2001)

    def test_kernels_match_on_arrays(self):
        np.testing.assert_array_equal(bits(special.ndtr(self.Z)),
                                      bits(stats.norm.cdf(self.Z)))
        np.testing.assert_array_equal(bits(special.ndtri(self.P)),
                                      bits(stats.norm.ppf(self.P)))

    @pytest.mark.parametrize("mu", [0.0, 0.013, -0.02])
    def test_failure_rate_matches_norm_cdf(self, mu):
        sigma = 0.021
        for voffset in np.linspace(0.0, abs(mu) + 40.0 * sigma, 401):
            upper = stats.norm.cdf((voffset - mu) / sigma)
            lower = stats.norm.cdf((-voffset - mu) / sigma)
            expected = float(1.0 - (upper - lower))
            assert bits(failure_rate_at(voffset, mu, sigma)) == \
                bits(expected), voffset

    def test_sigma_level_matches_norm_ppf(self):
        for p in self.P[:-1]:  # the failure rate 2p must stay below 1
            expected = float(-stats.norm.ppf(p))
            assert bits(sigma_level(2.0 * p)) == bits(expected), p


class TestOffsetSpec:
    def test_centred_reduces_to_sigma_level(self):
        sigma = 0.0148
        assert offset_spec(0.0, sigma, 1e-9) == pytest.approx(
            sigma_level(1e-9) * sigma, rel=1e-6)

    def test_paper_fresh_value(self):
        """mu ~ 0, sigma = 14.8 mV -> spec ~ 90.2 mV (Table II)."""
        assert offset_spec(0.0001, 0.0148) * 1e3 == pytest.approx(
            90.3, abs=0.5)

    def test_paper_aged_value(self):
        """mu = 17.3 mV, sigma = 15.7 mV -> spec ~ 111.5 mV."""
        assert offset_spec(0.0173, 0.0157) * 1e3 == pytest.approx(
            111.5, abs=0.8)

    def test_shifted_tail_dominates(self):
        """For |mu| >> 0 the spec approaches |mu| + z1 * sigma where z1
        is the one-sided 1e-9 quantile (~6.0)."""
        spec = offset_spec(0.05, 0.01, 1e-9)
        assert spec == pytest.approx(0.05 + 5.998 * 0.01, rel=1e-3)

    def test_symmetric_in_mu(self):
        assert offset_spec(0.02, 0.01) == pytest.approx(
            offset_spec(-0.02, 0.01), rel=1e-9)

    def test_monotone_in_sigma(self):
        assert offset_spec(0.0, 0.02) > offset_spec(0.0, 0.01)

    def test_monotone_in_failure_rate(self):
        assert (offset_spec(0.0, 0.01, 1e-12)
                > offset_spec(0.0, 0.01, 1e-6))

    def test_validation(self):
        with pytest.raises(ValueError):
            offset_spec(0.0, 0.0)
        with pytest.raises(ValueError):
            offset_spec(0.0, 0.01, 0.0)

    def test_failure_rate_domain(self):
        """The Eq.-3 inversion is only meaningful for rates in (0, 0.5):
        at fr >= 0.5 the 'spec' would sit inside the distribution body."""
        with pytest.raises(ValueError):
            offset_spec(0.0, 0.01, 0.5)
        with pytest.raises(ValueError):
            offset_spec(0.0, 0.01, 0.9)
        offset_spec(0.0, 0.01, 0.499)

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ValueError):
            offset_spec(float("nan"), 0.01)
        with pytest.raises(ValueError):
            offset_spec(0.0, float("nan"))
        with pytest.raises(ValueError):
            offset_spec(0.0, float("inf"))

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(min_value=-0.08, max_value=0.08),
           sigma=st.floats(min_value=0.005, max_value=0.03),
           fr=st.floats(min_value=1e-12, max_value=1e-3))
    def test_solution_satisfies_eq3(self, mu, sigma, fr):
        """The solved spec reproduces the target failure rate."""
        spec = offset_spec(mu, sigma, fr)
        assert failure_rate_at(spec, mu, sigma) == pytest.approx(
            fr, rel=1e-3)
