"""Tests for the variance-reduced rare-event engine.

The estimator maths is pinned on a closed-form toy problem — a linear
offset ``offset = a . dVth`` whose exact tail is known analytically —
so correctness (estimates, confidence-interval coverage, NaN handling)
is checked against ground truth, not against another Monte Carlo.  A
few small runs on the real testbench then cover the end-to-end wiring:
``run_cell(estimator=...)``, bit parity of the nominal population,
cache round-trips and worker-count invariance.
Finally both estimators are checked against a brute-force population
of the real testbench at a rate brute force resolves, and the IS
spec's sample cost is compared with direct Monte Carlo at 1e-9.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.circuits.sense_amp import ReadTiming
from repro.core.experiment import ExperimentCell, run_cell
from repro.core.montecarlo import McSettings
from repro.core.parallel import run_cells
from repro.core.rare_event import (ESTIMATOR_KINDS, Estimate,
                                   EstimatorConfig, MixtureProposal,
                                   TailEstimate, estimate_tail)
from repro.models.variation import MismatchModel

RATIOS = {"m1": 4.0, "m2": 4.0, "m3": 8.0}
GAINS = {"m1": 1.0, "m2": -1.0, "m3": 0.5}
MODEL = MismatchModel()
SIGMA_OFF = math.sqrt(sum(GAINS[n] ** 2 * MODEL.sigma_vth(RATIOS[n]) ** 2
                          for n in RATIOS))


def linear_offset(shifts):
    """The toy device-under-test: offset = sum of gained Vth shifts."""
    return sum(GAINS[name] * shifts[name] for name in GAINS)


def exact_failure_rate(spec: float) -> float:
    """P(|offset| >= spec) of the toy, exactly."""
    return float(2.0 * norm.sf(spec / SIGMA_OFF))


def exact_spec(failure_rate: float) -> float:
    return float(norm.isf(failure_rate / 2.0) * SIGMA_OFF)


def toy_pilot(seed=0, size=400):
    rng = np.random.default_rng(seed)
    shifts = MODEL.sample_circuit(RATIOS, size, rng)
    return shifts, linear_offset(shifts)


def is_estimate(seed=7, fr=1e-9, samples=2000, bootstrap=200, **kwargs):
    pilot_shifts, pilot_offsets = toy_pilot()
    config = EstimatorConfig(kind="is", samples=samples,
                             bootstrap=bootstrap, **kwargs)
    return estimate_tail(linear_offset, MODEL, RATIOS, config, seed=seed,
                         failure_rate=fr, pilot_shifts=pilot_shifts,
                         pilot_offsets=pilot_offsets)


class TestEstimatorConfig:
    def test_kinds(self):
        assert set(ESTIMATOR_KINDS) == {"fit", "scaled-sigma", "is"}
        for kind in ESTIMATOR_KINDS:
            EstimatorConfig(kind=kind)

    @pytest.mark.parametrize("bad", [
        dict(kind="bogus"),
        dict(samples=1),
        dict(defensive=0.0),
        dict(defensive=1.0),
        dict(widen=0.0),
        dict(shift_z=-1.0),
        dict(weight_clip=0.0),
        dict(scales=(2.0,)),
        dict(scales=(0.5, 2.0)),
        dict(bootstrap=1),
        dict(ci_level=1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            EstimatorConfig(**bad)


class TestMixtureProposal:
    def proposal(self, alpha=0.1, widen=1.25):
        shift = {n: 3.0 * MODEL.sigma_vth(RATIOS[n]) for n in RATIOS}
        return MixtureProposal(
            mismatch=MODEL, ratios=RATIOS,
            weights=(alpha, 1.0 - alpha), means=({}, shift),
            widths=(1.0, widen))

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            MixtureProposal(mismatch=MODEL, ratios=RATIOS,
                            weights=(0.5, 0.4), means=({}, {}),
                            widths=(1.0, 1.0))

    def test_sample_deterministic(self):
        p = self.proposal()
        a = p.sample(64, seed=3)
        b = p.sample(64, seed=3)
        for name in RATIOS:
            np.testing.assert_array_equal(a[name], b[name])
        c = p.sample(64, seed=4)
        assert not np.array_equal(a["m1"], c["m1"])

    def test_defensive_component_bounds_weights(self):
        alpha = 0.1
        p = self.proposal(alpha=alpha)
        shifts = p.sample(512, seed=5)
        log_w = p.log_weight(shifts)
        assert np.all(np.exp(log_w) <= 1.0 / alpha + 1e-9)

    def test_log_weight_is_exact_likelihood_ratio(self):
        p = self.proposal()
        shifts = p.sample(16, seed=6)
        log_p = np.zeros(16)
        log_q = np.full(16, -np.inf)
        for k, (w, mean, width) in enumerate(zip(p.weights, p.means,
                                                 p.widths)):
            comp = np.zeros(16)
            for name in RATIOS:
                sigma = width * MODEL.sigma_vth(RATIOS[name])
                mu = mean.get(name, 0.0)
                comp += norm.logpdf(shifts[name], loc=mu, scale=sigma)
            log_q = np.logaddexp(log_q, math.log(w) + comp)
        for name in RATIOS:
            log_p += norm.logpdf(shifts[name], loc=0.0,
                                 scale=MODEL.sigma_vth(RATIOS[name]))
        np.testing.assert_allclose(p.log_weight(shifts), log_p - log_q,
                                   rtol=1e-10)


class TestImportanceSamplingToy:
    def test_spec_matches_exact_tail(self):
        est = is_estimate()
        spec = est.spec_at(1e-9)
        truth = exact_spec(1e-9)
        assert spec.value == pytest.approx(truth, rel=0.02)
        assert spec.contains(truth)
        assert spec.lo < spec.value < spec.hi

    def test_failure_rate_matches_exact_tail(self):
        est = is_estimate()
        truth_spec = exact_spec(1e-9)
        rate = est.failure_rate_at(truth_spec)
        assert rate.value == pytest.approx(1e-9, rel=0.5)
        assert rate.contains(1e-9)

    def test_deterministic_in_seed(self):
        a = is_estimate(seed=11, samples=256, bootstrap=50)
        b = is_estimate(seed=11, samples=256, bootstrap=50)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.log_weights, b.log_weights)
        assert a.spec_at(1e-9) == b.spec_at(1e-9)

    def test_ess_and_diagnostics(self):
        est = is_estimate(samples=512, bootstrap=50)
        assert 0.0 < est.ess <= est.n_simulated
        assert est.clip_events == 0
        assert est.out_of_range == 0
        assert est.pilot_count == 400

    def test_weight_clip_counts(self):
        est = is_estimate(samples=512, bootstrap=50, weight_clip=1e-3)
        assert est.clip_events > 0

    def test_ci_coverage_over_seeds(self):
        """The 95% bootstrap CI must cover the truth most of the time.

        20 independent estimator runs at modest sample counts; with
        honest intervals the failure probability of this assertion is
        negligible (P[Binomial(20, .95) < 16] ~ 3e-4).
        """
        truth = exact_spec(1e-9)
        hits = sum(is_estimate(seed=100 + k, samples=400,
                               bootstrap=120).spec_at(1e-9).contains(truth)
                   for k in range(20))
        assert hits >= 16

    def test_nan_offsets_count_as_failures(self):
        """Out-of-range samples (NaN offset) are tail mass, not holes."""
        cap = 4.5 * SIGMA_OFF

        def clipped(shifts):
            value = linear_offset(shifts)
            return np.where(np.abs(value) > cap, np.nan, value)

        est_t = is_estimate(samples=2000, bootstrap=50)
        pilot_shifts, pilot_offsets = toy_pilot()
        config = EstimatorConfig(kind="is", samples=2000, bootstrap=50)
        est_c = estimate_tail(clipped, MODEL, RATIOS, config, seed=7,
                              failure_rate=1e-9,
                              pilot_shifts=pilot_shifts,
                              pilot_offsets=pilot_offsets)
        assert est_c.out_of_range > 0
        probe = 4.0 * SIGMA_OFF  # below the cap: exact rate recoverable
        assert (est_c.failure_rate_at(probe).value
                == pytest.approx(est_t.failure_rate_at(probe).value,
                                 rel=1e-9))

    def test_query_validation(self):
        est = is_estimate(samples=256, bootstrap=50)
        with pytest.raises(ValueError):
            est.spec_at(0.6)
        with pytest.raises(ValueError):
            est.spec_at(0.0)
        with pytest.raises(ValueError):
            est.failure_rate_at(-1.0)


class TestScaledSigmaToy:
    def estimate(self, seed=7, samples=1500, bootstrap=100):
        config = EstimatorConfig(kind="scaled-sigma", samples=samples,
                                 bootstrap=bootstrap)
        return estimate_tail(linear_offset, MODEL, RATIOS, config,
                             seed=seed)

    def test_extrapolation_matches_exact_tail(self):
        est = self.estimate()
        spec = est.spec_at(1e-9)
        truth = exact_spec(1e-9)
        assert spec.value == pytest.approx(truth, rel=0.10)
        assert spec.contains(truth)

    def test_failure_rate_extrapolation(self):
        est = self.estimate()
        truth_spec = exact_spec(1e-9)
        rate = est.failure_rate_at(truth_spec)
        # Extrapolated failure rates are log-scale quantities (common
        # random numbers make the whole ladder share one base draw, so
        # a heavy draw biases every scale coherently); two orders of
        # magnitude at a 1e-9 target is the meaningful resolution.
        assert 0.0 < rate.value
        assert abs(math.log10(rate.value / 1e-9)) < 2.0
        assert rate.contains(1e-9)

    def test_common_random_numbers_across_scales(self):
        est = self.estimate(samples=200, bootstrap=50)
        rows = est.offsets.reshape(len(np.unique(est.scales)), 200)
        scales = np.unique(est.scales)
        # Same base draws scaled: the toy is linear, so offsets scale
        # exactly with s.
        np.testing.assert_allclose(rows[1], rows[0] * scales[1] / scales[0],
                                   rtol=1e-12)


class TestTailEstimateSerialisation:
    def test_meta_roundtrip(self):
        est = is_estimate(samples=256, bootstrap=50)
        clone = TailEstimate.from_parts(est.offsets, est.log_weights,
                                        est.scales, est.meta())
        assert clone.spec_at(1e-9) == est.spec_at(1e-9)
        assert clone.kind == "is"
        assert clone.ess == est.ess

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TailEstimate(kind="is", offsets=np.zeros(4), log_weights=None,
                         scales=None, n_simulated=4, pilot_count=0,
                         ess=4.0, clip_events=0, out_of_range=0,
                         bootstrap=50, ci_level=0.95, seed=0)
        with pytest.raises(ValueError):
            TailEstimate(kind="scaled-sigma", offsets=np.zeros(4),
                         log_weights=None, scales=None, n_simulated=4,
                         pilot_count=0, ess=4.0, clip_events=0,
                         out_of_range=0, bootstrap=50, ci_level=0.95,
                         seed=0)


class TestEstimateTailDispatch:
    def test_fit_kind_rejected(self):
        with pytest.raises(ValueError):
            estimate_tail(linear_offset, MODEL, RATIOS,
                          EstimatorConfig(kind="fit"), seed=0)

    def test_is_needs_pilot(self):
        with pytest.raises(ValueError):
            estimate_tail(linear_offset, MODEL, RATIOS,
                          EstimatorConfig(kind="is"), seed=0)


SMALL = dict(settings=McSettings(size=24), measure_delay=False,
             offset_iterations=6)
SMALL_EST = EstimatorConfig(kind="is", samples=48, bootstrap=30)


class TestRunCellIntegration:
    cell = ExperimentCell(scheme="nssa", workload=None, time_s=0.0)

    def test_tail_attached_and_sane(self):
        result = run_cell(self.cell, estimator=SMALL_EST, **SMALL)
        tail = result.offset.tail
        assert tail is not None and tail.kind == "is"
        assert tail.n_simulated == 48
        spec = result.offset.spec_ci()
        assert 0.0 < spec.value < 0.25
        # Tail-aware spec_at answers from the tail, fit_spec from Eq. 3.
        assert result.offset.spec == tail.spec_point(1e-9)
        assert result.offset.fit_spec != result.offset.spec

    def test_nominal_population_bit_identical(self):
        plain = run_cell(self.cell, **SMALL)
        tailed = run_cell(self.cell, estimator=SMALL_EST, **SMALL)
        np.testing.assert_array_equal(plain.offset.offsets,
                                      tailed.offset.offsets)
        assert plain.offset.fit == tailed.offset.fit

    def test_cache_roundtrip_preserves_tail(self, tmp_path):
        from repro.core.cache import ResultCache
        cache = ResultCache(tmp_path)
        first = run_cell(self.cell, estimator=SMALL_EST, cache=cache,
                         **SMALL)
        again = run_cell(self.cell, estimator=SMALL_EST, cache=cache,
                         **SMALL)
        np.testing.assert_array_equal(first.offset.tail.offsets,
                                      again.offset.tail.offsets)
        np.testing.assert_array_equal(first.offset.tail.log_weights,
                                      again.offset.tail.log_weights)
        assert first.offset.spec_ci() == again.offset.spec_ci()

    def test_estimator_key_disjoint_from_fit_key(self, tmp_path):
        from repro.core.cache import ResultCache
        cache = ResultCache(tmp_path)
        k_fit = cache.key_for_cell(self.cell,
                                   settings=SMALL["settings"],
                                   measure_delay=False,
                                   offset_iterations=6)
        k_is = cache.key_for_cell(self.cell,
                                  settings=SMALL["settings"],
                                  measure_delay=False,
                                  offset_iterations=6,
                                  estimator=SMALL_EST)
        assert k_fit != k_is

    def test_serial_and_parallel_grids_agree(self):
        """IS draws are spawn-keyed: worker count cannot change them."""
        cells = [self.cell,
                 ExperimentCell(scheme="issa", workload=None, time_s=0.0)]
        serial = run_cells(cells, estimator=SMALL_EST, workers=1, **SMALL)
        parallel = run_cells(cells, estimator=SMALL_EST, workers=2,
                             **SMALL)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.offset.tail.offsets,
                                          b.offset.tail.offsets)
            np.testing.assert_array_equal(a.offset.tail.log_weights,
                                          b.offset.tail.log_weights)
            assert a.offset.spec == b.offset.spec


#: Two-sided 95% normal quantile of the direct-MC cost model.
Z95 = 1.959964


def wilson_interval(events: int, n: int):
    """95% Wilson score interval of a binomial rate."""
    p = events / n
    z2 = Z95 * Z95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


class TestRealTestbenchTail:
    """The estimators against brute force and direct MC on the SA."""

    cell = ExperimentCell(scheme="nssa", workload=None, time_s=0.0)
    PILOT = 100

    def _run(self, size, **kwargs):
        return run_cell(self.cell, settings=McSettings(size=size),
                        timing=ReadTiming(dt=2e-12), measure_delay=False,
                        offset_iterations=8, **kwargs)

    def test_estimators_agree_with_brute_force(self):
        """At a 1e-2 probe, brute force resolves the rate (20 events of
        2000), and each estimator's interval must overlap its Wilson
        interval.  The IS run is tilted at the probe's own rate."""
        brute = 2000
        mag = np.abs(self._run(brute).offset.offsets)
        mag = np.where(np.isnan(mag), np.inf, mag)
        probe = float(np.quantile(mag, 1.0 - 1e-2))
        events = int(np.sum(mag >= probe))
        assert events >= 5
        lo, hi = wilson_interval(events, brute)
        tails = {
            "is": self._run(self.PILOT, failure_rate=1e-2,
                            estimator=EstimatorConfig(
                                kind="is", samples=400, bootstrap=100)),
            "scaled-sigma": self._run(self.PILOT, estimator=EstimatorConfig(
                kind="scaled-sigma", samples=200, bootstrap=100)),
        }
        for kind, result in tails.items():
            rate = result.offset.tail.failure_rate_at(probe)
            assert rate.lo <= hi and lo <= rate.hi, \
                (kind, (rate.lo, rate.hi), (lo, hi))

    def test_is_needs_100x_fewer_samples_than_direct_mc(self):
        """Direct MC resolving the 1e-9 rate at the IS spec to the IS
        interval's relative half-width h needs z^2 (1 - fr) / (fr h^2)
        samples; IS (pilot included) must need at least 100x fewer."""
        fr = 1e-9
        tail = self._run(self.PILOT, estimator=EstimatorConfig(
            kind="is", samples=400, bootstrap=100)).offset.tail
        rate = tail.failure_rate_at(tail.spec_at(fr).value)
        half = (rate.hi - rate.lo) / (2.0 * rate.value)
        n_direct = Z95 ** 2 * (1.0 - fr) / (fr * half ** 2)
        assert n_direct / (self.PILOT + tail.n_simulated) >= 100.0
