"""Variance-reduced rare-event estimation of the offset tail.

The paper's headline figure of merit — a 6.1 sigma offset specification
at a 1e-9 failure rate — is extrapolated from 400 Monte-Carlo samples
through a normal fit.  That is cheap but statistically fragile: the
spec's confidence interval shrinks only as ``1/sqrt(N)`` and the normal
assumption is unchecked beyond ~2.5 sigma.  This module estimates the
tail *directly* with two classic variance-reduction schemes:

**Mixture importance sampling** (``kind="is"``)
    Draw the per-device Vth mismatch from a defensive mixture proposal

    .. math:: q = \\alpha\\,p + \\tfrac{1-\\alpha}{2}\\,q_+
                  + \\tfrac{1-\\alpha}{2}\\,q_-

    where ``p`` is the nominal Pelgrom density and ``q_±`` are copies
    of it shifted towards the ± offset-spec exceedance region (and
    optionally widened).  Every sample is re-weighted by the exact likelihood ratio
    ``w = p/q``, computed in log space from the per-device normal
    densities, so the estimator is unbiased for *any* offset function —
    no normality assumption.  The defensive component bounds
    ``w <= 1/alpha``, and the effective sample size
    ``ESS = (sum w)^2 / sum w^2`` diagnoses proposal/target mismatch.
    The shift direction comes from a linear-regression pilot (the
    nominal 400-sample population is reused, costing zero extra
    simulations): the most likely mismatch vector achieving offset
    ``v`` under ``N(0, diag(sigma^2))`` is
    ``x* = (v - c0) / (beta' Sigma beta) * Sigma beta``.

**Scaled-sigma sampling** (``kind="scaled-sigma"``)
    Run Monte Carlo with every Pelgrom sigma inflated by factors
    ``s in scales`` (common random numbers across scales), then
    extrapolate the failure rate back to ``s = 1`` with the regression

    .. math:: \\ln P_s(v) - \\ln s = a(v) + b(v)/s^2

    which is *exact* for normal tails (where
    ``ln P_s ~ -v^2/(2 s^2 sigma^2) - ln(v/(s sigma)) + const``) and a
    good local model for mildly non-normal ones.  Needs no knowledge of
    the failure direction, so it cross-checks the IS tilt.

Both estimators report bootstrap percentile confidence intervals on the
failure rate at a spec and on the spec at a failure rate, resampling
the *whole* pipeline (weights and regressions included) so the
intervals are honest about fit noise, not just binomial noise.

Every random draw is spawn-keyed (:func:`~repro.models.variation.
keyed_rng`) on lanes disjoint from the paper's nominal population, so
enabling an estimator never perturbs the default tables and results are
invariant to ``--workers`` chunking.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.failure import offset_spec, sigma_level
from ..analysis.perf import PERF
from ..analysis.stats import fit_normal
from ..models.variation import MismatchModel, keyed_rng

#: Recognised ``estimator`` names (``fit`` = the paper's normal fit).
ESTIMATOR_KINDS = ("fit", "scaled-sigma", "is")

# Spawn-key stream lanes.  Each distinct draw purpose gets its own lane
# so no generator is ever shared or re-used across purposes.
_STREAM_IS_Z = 0x15A        # IS proposal standard-normal draws
_STREAM_IS_COMP = 0x15B     # IS mixture-component assignment
_STREAM_SSS_Z = 0x55A       # scaled-sigma base draws (shared across s)
_STREAM_BOOT = 0xB007       # bootstrap resampling indices

#: An offset function maps per-device Vth shift arrays to one offset
#: voltage per Monte-Carlo sample (NaN = outside the measurable range).
OffsetFn = Callable[[Dict[str, np.ndarray]], np.ndarray]


@dataclasses.dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of the tail estimator used by ``run_cell``.

    Attributes
    ----------
    kind:
        ``"fit"`` (paper default: normal fit + analytic extrapolation),
        ``"is"`` (mixture importance sampling) or ``"scaled-sigma"``.
    samples:
        Simulated samples per estimator run (per sigma scale for
        ``scaled-sigma``).
    defensive:
        Nominal-density mixture weight ``alpha``; bounds likelihood
        ratios at ``1/alpha``.
    widen:
        Sigma inflation of the shifted proposal components.  The
        default 1.0 (no widening) gives the tightest spec intervals on
        near-normal tails; values > 1 trade interval width for extra
        robustness when the tail is suspected to be heavier than the
        pilot suggests.
    shift_z:
        Tilt radius in pilot-sigma units; ``None`` derives it from the
        pilot normal fit at the target failure rate.
    weight_clip:
        Optional hard cap on likelihood ratios (clips are counted; the
        defensive mixture usually makes this unnecessary).
    scales:
        Sigma inflation ladder for ``scaled-sigma``.
    bootstrap:
        Bootstrap replicates behind every confidence interval.
    ci_level:
        Two-sided confidence level of the reported intervals.
    """

    kind: str = "fit"
    samples: int = 2000
    defensive: float = 0.10
    widen: float = 1.0
    shift_z: Optional[float] = None
    weight_clip: Optional[float] = None
    scales: Tuple[float, ...] = (2.5, 3.0, 3.5, 4.0)
    bootstrap: int = 400
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; "
                             f"expected one of {ESTIMATOR_KINDS}")
        if self.samples < 10:
            raise ValueError("estimator needs at least 10 samples")
        if not 0.0 < self.defensive < 1.0:
            raise ValueError("defensive weight must be in (0, 1)")
        if self.widen <= 0.0:
            raise ValueError("proposal widening must be positive")
        if self.shift_z is not None and self.shift_z <= 0.0:
            raise ValueError("shift_z must be positive")
        if self.weight_clip is not None and self.weight_clip <= 0.0:
            raise ValueError("weight_clip must be positive")
        if len(self.scales) < 2:
            raise ValueError("scaled-sigma needs at least 2 scales")
        if any(s <= 1.0 for s in self.scales):
            raise ValueError("sigma scales must exceed 1")
        if self.bootstrap < 10:
            raise ValueError("bootstrap needs at least 10 replicates")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class Estimate:
    """A point estimate with a bootstrap percentile interval."""

    value: float
    lo: float
    hi: float
    level: float

    def contains(self, truth: float) -> bool:
        """Whether ``truth`` lies inside the interval (NaN-safe)."""
        return bool(np.isfinite(self.lo) and np.isfinite(self.hi)
                    and self.lo <= truth <= self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _logsumexp(rows: np.ndarray) -> np.ndarray:
    """``log(sum(exp(rows), axis=0))`` without overflow."""
    peak = np.max(rows, axis=0)
    return peak + np.log(np.sum(np.exp(rows - peak), axis=0))


@dataclasses.dataclass(frozen=True)
class MixtureProposal:
    """Defensive Gaussian-mixture proposal over the mismatch space.

    Component ``k`` draws every device ``j`` from
    ``N(means[k][j], (widths[k] * sigma_j)^2)`` with probability
    ``weights[k]``; component 0 is conventionally the nominal density
    (empty mean, width 1), which bounds likelihood ratios at
    ``1 / weights[0]``.
    """

    mismatch: MismatchModel
    ratios: Mapping[str, float]
    weights: Tuple[float, ...]
    means: Tuple[Mapping[str, float], ...]
    widths: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.means) == len(self.widths)):
            raise ValueError("mixture component lists disagree in length")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("mixture weights must be positive")

    def sample(self, size: int, seed: int) -> Dict[str, np.ndarray]:
        """Draw ``size`` spawn-keyed samples from the mixture."""
        base = self.mismatch.sample_circuit_keyed(
            self.ratios, size, seed, stream=_STREAM_IS_Z)
        comp = keyed_rng(seed, _STREAM_IS_COMP, 0).choice(
            len(self.weights), size=size, p=np.asarray(self.weights))
        width = np.asarray(self.widths, dtype=float)[comp]
        out: Dict[str, np.ndarray] = {}
        for name, draws in base.items():
            mu = np.asarray([m.get(name, 0.0) for m in self.means])[comp]
            out[name] = mu + width * draws
        return out

    def log_weight(self, shifts: Mapping[str, np.ndarray]) -> np.ndarray:
        """Exact log likelihood ratio ``ln p(x) - ln q(x)`` per sample."""
        log_p = self.mismatch.log_density_circuit(shifts, self.ratios)
        rows = [math.log(w) + self.mismatch.log_density_circuit(
                    shifts, self.ratios, mean=mean, scale=width)
                for w, mean, width in zip(self.weights, self.means,
                                          self.widths)]
        return log_p - _logsumexp(np.stack(rows))


# -- tail curves and inversions -------------------------------------------


def _magnitudes(offsets: np.ndarray) -> np.ndarray:
    """|offset| with NaN (sample outside search range) mapped to +inf.

    An offset the binary search could not bracket exceeded the search
    range, so for tail purposes its magnitude is larger than any
    threshold we can ask about — dropping it would *underestimate* the
    tail.
    """
    mag = np.abs(np.asarray(offsets, dtype=float))
    return np.where(np.isnan(mag), np.inf, mag)


def _exceedance_curve(mag: np.ndarray,
                      weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted exceedance curve: thresholds (descending) and rates.

    ``rate[i]`` estimates ``P(|offset| >= v[i])`` as
    ``mean(w * 1{mag >= v})`` evaluated at the sample magnitudes.
    """
    order = np.argsort(-mag, kind="stable")
    v = mag[order]
    rate = np.cumsum(weights[order]) / mag.size
    return v, rate


def _pointwise_spec(v_desc: np.ndarray, rate: np.ndarray,
                    target: float) -> float:
    """Smallest sampled threshold whose exceedance rate reaches target."""
    idx = int(np.searchsorted(rate, target, side="left"))
    if idx >= rate.size:
        return float("nan")
    return float(v_desc[idx])


def _is_failure_rate(mag: np.ndarray, weights: np.ndarray,
                     spec: float) -> float:
    """Importance-sampled two-sided failure rate at ``spec``."""
    return float(np.mean(weights * (mag >= spec)))


def _is_spec(mag: np.ndarray, weights: np.ndarray, target: float,
             bracket: float = 30.0, grid_points: int = 9) -> float:
    """Invert the weighted tail curve at failure rate ``target``.

    The pointwise (order-statistic) inversion is noisy — its variance
    carries a ``1/density`` factor at the crossing.  We therefore
    smooth: fit ``ln fr(v)`` with a quadratic over a grid spanning
    roughly ``[target * bracket, target / bracket]`` (pooling the
    information of every sample in that window, as the tail of a
    near-normal distribution is locally log-quadratic) and solve the
    fit for ``target``, falling back to the pointwise estimate whenever
    the window or fit degenerates.
    """
    v_desc, rate = _exceedance_curve(mag, weights)
    point = _pointwise_spec(v_desc, rate, target)
    if not np.isfinite(point):
        return point
    hi_t = max(target / bracket, float(rate[0]))
    lo_t = min(target * bracket, float(rate[-1]))
    v_hi = _pointwise_spec(v_desc, rate, hi_t)
    v_lo = _pointwise_spec(v_desc, rate, lo_t)
    if not (np.isfinite(v_lo) and np.isfinite(v_hi)) or v_lo >= v_hi:
        return point
    grid = np.linspace(v_lo, v_hi, grid_points)
    fr = (weights[None, :] * (mag[None, :] >= grid[:, None])).mean(axis=1)
    ok = fr > 0.0
    if int(ok.sum()) < 4:
        return point
    coef = np.polyfit(grid[ok], np.log(fr[ok]), 2)
    roots = np.roots([coef[0], coef[1], coef[2] - math.log(target)])
    real = roots[np.abs(roots.imag) < 1e-9].real
    span = v_hi - v_lo
    real = real[(real >= v_lo - span) & (real <= v_hi + span)]
    if real.size == 0:
        return point
    return float(real[np.argmin(np.abs(real - point))])


def _linear_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Least-squares ``(intercept, slope)`` of ``y`` on ``x``."""
    xm = x.mean()
    ym = y.mean()
    var = float(((x - xm) ** 2).sum())
    if var == 0.0:
        return float(ym), 0.0
    slope = float(((x - xm) * (y - ym)).sum()) / var
    return float(ym - slope * xm), slope


def _sss_failure_rate(mag_rows: np.ndarray, scales: np.ndarray,
                      spec: float) -> float:
    """Extrapolate per-scale exceedance rates at ``spec`` to s = 1.

    Fits ``ln P_s - ln s = a + b / s^2`` over the scales with events
    and evaluates it at ``s = 1``; exact for normal tails.
    """
    events = (mag_rows >= spec).mean(axis=1)
    ok = events > 0.0
    if int(ok.sum()) < 2:
        return float("nan")
    x = 1.0 / scales[ok] ** 2
    y = np.log(events[ok]) - np.log(scales[ok])
    intercept, slope = _linear_fit(x, y)
    return float(np.exp(intercept + slope))


def _sss_spec(mag_rows: np.ndarray, scales: np.ndarray, target: float,
              grid_points: int = 25, min_events: int = 10) -> float:
    """Invert the scaled-sigma extrapolation at failure rate ``target``.

    Builds ``ln fr(v)`` on a threshold grid kept inside the range where
    the *smallest* scale still records ``min_events`` exceedances (so
    every grid point is backed by data at every scale), fits a
    quadratic in ``v`` and solves it for ``target`` — linearly
    extrapolating from the nearest grid edge when the target is rarer
    than the grid reaches.
    """
    base = mag_rows[0]
    finite = base[np.isfinite(base)]
    if finite.size < 4 * min_events:
        return float("nan")
    v_hi = float(np.quantile(finite, 1.0 - min_events / finite.size))
    v_lo = 0.25 * v_hi
    if not 0.0 < v_lo < v_hi:
        return float("nan")
    grid = np.linspace(v_lo, v_hi, grid_points)
    fr = np.array([_sss_failure_rate(mag_rows, scales, v) for v in grid])
    ok = np.isfinite(fr) & (fr > 0.0)
    if int(ok.sum()) < 4:
        return float("nan")
    xs = grid[ok]
    ys = np.log(fr[ok])
    log_t = math.log(target)
    coef = np.polyfit(xs, ys, 2)
    roots = np.roots([coef[0], coef[1], coef[2] - log_t])
    real = roots[np.abs(roots.imag) < 1e-9].real
    lo_edge, hi_edge = float(xs[0]), float(xs[-1])
    span = hi_edge - lo_edge
    real = real[(real >= lo_edge - 0.25 * span)
                & (real <= hi_edge + 1.5 * span)]
    if real.size:
        # Of the admissible roots prefer the one on the decreasing
        # branch (tails fall with v), i.e. with negative fitted slope.
        slope = 2.0 * coef[0] * real + coef[1]
        falling = real[slope < 0.0]
        pick = falling if falling.size else real
        return float(pick[np.argmin(np.abs(pick - hi_edge))])
    # Quadratic never reaches the target inside the admissible window:
    # extrapolate the last grid segment linearly in ln fr.
    if ys.size >= 2 and ys[-1] != ys[-2]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        if slope < 0.0:
            return float(xs[-1] + (log_t - ys[-1]) / slope)
    return float("nan")


def percentile_ci(samples: np.ndarray, level: float,
                   point: float) -> Tuple[float, float]:
    """Percentile interval of bootstrap ``samples`` (NaN-tolerant)."""
    finite = samples[np.isfinite(samples)]
    if finite.size < max(10, samples.size // 2):
        return float("nan"), float("nan")
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(finite, [tail, 100.0 - tail])
    return float(min(lo, point)), float(max(hi, point))


# -- the estimate object ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TailEstimate:
    """Raw output of one estimator run, with query methods.

    The sample arrays are retained (and cached) so any failure rate or
    spec — not just the one requested at run time — can be queried
    later without re-simulating.
    """

    kind: str
    offsets: np.ndarray
    log_weights: Optional[np.ndarray]
    scales: Optional[np.ndarray]
    n_simulated: int
    pilot_count: int
    ess: float
    clip_events: int
    out_of_range: int
    bootstrap: int
    ci_level: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind == "is":
            if self.log_weights is None:
                raise ValueError("IS estimate needs log weights")
            if len(self.log_weights) != len(self.offsets):
                raise ValueError("log_weights/offsets length mismatch")
        elif self.kind == "scaled-sigma":
            if self.scales is None:
                raise ValueError("scaled-sigma estimate needs scales")
            if len(self.scales) != len(self.offsets):
                raise ValueError("scales/offsets length mismatch")
        else:
            raise ValueError(f"unknown tail-estimate kind {self.kind!r}")

    # -- views -------------------------------------------------------------

    def magnitudes(self) -> np.ndarray:
        """|offset| per sample with out-of-range samples at +inf."""
        return _magnitudes(self.offsets)

    def weights(self) -> np.ndarray:
        """Likelihood-ratio weights (ones for scaled-sigma)."""
        if self.log_weights is None:
            return np.ones(len(self.offsets))
        return np.exp(self.log_weights)

    def _scale_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Scaled-sigma samples as an (n_scales, n) magnitude matrix."""
        assert self.scales is not None
        uniq = np.unique(self.scales)
        mag = self.magnitudes()
        rows = [mag[self.scales == s] for s in uniq]
        if len({len(r) for r in rows}) != 1:
            raise ValueError("unequal sample counts per sigma scale")
        return np.stack(rows), uniq

    def _boot_indices(self, n: int, lane: int) -> np.ndarray:
        rng = keyed_rng(self.seed, _STREAM_BOOT, lane)
        return rng.integers(0, n, size=(self.bootstrap, n))

    # -- queries -----------------------------------------------------------

    def failure_rate_point(self, spec: float) -> float:
        """Point estimate of ``P(|offset| >= spec)`` (no bootstrap)."""
        if spec <= 0.0:
            raise ValueError("offset spec must be positive")
        if self.kind == "is":
            return _is_failure_rate(self.magnitudes(), self.weights(), spec)
        rows, scales = self._scale_rows()
        return _sss_failure_rate(rows, scales, spec)

    def spec_point(self, failure_rate: float) -> float:
        """Point estimate of the spec at ``failure_rate`` (no bootstrap)."""
        if not 0.0 < failure_rate < 0.5:
            raise ValueError("failure rate must be in (0, 0.5)")
        if self.kind == "is":
            return _is_spec(self.magnitudes(), self.weights(), failure_rate)
        rows, scales = self._scale_rows()
        return _sss_spec(rows, scales, failure_rate)

    def failure_rate_at(self, spec: float) -> Estimate:
        """Two-sided failure rate ``P(|offset| >= spec)`` with CI."""
        point = self.failure_rate_point(spec)
        if self.kind == "is":
            mag = self.magnitudes()
            contrib = self.weights() * (mag >= spec)
            reps = contrib[self._boot_indices(mag.size, 0)].mean(axis=1)
        else:
            rows, scales = self._scale_rows()
            idx = self._boot_indices(rows.shape[1], 0)
            reps = np.array([_sss_failure_rate(rows[:, i], scales, spec)
                             for i in idx])
        lo, hi = percentile_ci(reps, self.ci_level, point)
        return Estimate(point, lo, hi, self.ci_level)

    def spec_at(self, failure_rate: float) -> Estimate:
        """Offset spec achieving ``failure_rate``, with CI."""
        point = self.spec_point(failure_rate)
        if self.kind == "is":
            mag = self.magnitudes()
            w = self.weights()
            idx = self._boot_indices(mag.size, 1)
            reps = np.array([_is_spec(mag[i], w[i], failure_rate)
                             for i in idx])
        else:
            rows, scales = self._scale_rows()
            idx = self._boot_indices(rows.shape[1], 1)
            reps = np.array([_sss_spec(rows[:, i], scales, failure_rate)
                             for i in idx])
        lo, hi = percentile_ci(reps, self.ci_level, point)
        return Estimate(point, lo, hi, self.ci_level)

    # -- (de)serialisation for the result cache ----------------------------

    def meta(self) -> Dict[str, object]:
        """JSON-serialisable scalar fields (arrays travel separately)."""
        return {"kind": self.kind,
                "n_simulated": int(self.n_simulated),
                "pilot_count": int(self.pilot_count),
                "ess": float(self.ess),
                "clip_events": int(self.clip_events),
                "out_of_range": int(self.out_of_range),
                "bootstrap": int(self.bootstrap),
                "ci_level": float(self.ci_level),
                "seed": int(self.seed)}

    @classmethod
    def from_parts(cls, offsets: np.ndarray,
                   log_weights: Optional[np.ndarray],
                   scales: Optional[np.ndarray],
                   meta: Mapping[str, object]) -> "TailEstimate":
        """Rebuild an estimate from cached arrays + scalar metadata."""
        return cls(kind=str(meta["kind"]),
                   offsets=np.asarray(offsets, dtype=float),
                   log_weights=(None if log_weights is None
                                else np.asarray(log_weights, dtype=float)),
                   scales=(None if scales is None
                           else np.asarray(scales, dtype=float)),
                   n_simulated=int(meta["n_simulated"]),
                   pilot_count=int(meta["pilot_count"]),
                   ess=float(meta["ess"]),
                   clip_events=int(meta["clip_events"]),
                   out_of_range=int(meta["out_of_range"]),
                   bootstrap=int(meta["bootstrap"]),
                   ci_level=float(meta["ci_level"]),
                   seed=int(meta["seed"]))


# -- estimator entry points -------------------------------------------------


def _pilot_direction(pilot_shifts: Mapping[str, np.ndarray],
                     pilot_offsets: np.ndarray,
                     sigmas: Mapping[str, float],
                     ) -> Tuple[float, Dict[str, float], float]:
    """Linear pilot model ``offset ~ c0 + beta . x`` of the offset map.

    Returns the intercept, the per-device mean-shift *template*
    ``t[j] = beta_j sigma_j^2 / (beta' Sigma beta)`` (multiply by
    ``v - c0`` to get the tilt reaching offset ``v``), and the linear
    offset sigma ``sqrt(beta' Sigma beta)``.
    """
    names = sorted(sigmas)
    offsets = np.asarray(pilot_offsets, dtype=float)
    valid = np.isfinite(offsets)
    if int(valid.sum()) < len(names) + 2:
        raise ValueError("pilot population too small for IS direction "
                         f"({int(valid.sum())} finite offsets, "
                         f"{len(names)} devices)")
    x = np.column_stack([np.asarray(pilot_shifts[n], dtype=float)[valid]
                         for n in names])
    a = np.column_stack([np.ones(x.shape[0]), x])
    coef, *_ = np.linalg.lstsq(a, offsets[valid], rcond=None)
    c0 = float(coef[0])
    beta = coef[1:]
    var_lin = float(sum(b * b * sigmas[n] ** 2
                        for b, n in zip(beta, names)))
    if var_lin <= 0.0 or not math.isfinite(var_lin):
        raise ValueError("pilot regression found no offset-relevant "
                         "mismatch direction")
    template = {n: float(b * sigmas[n] ** 2 / var_lin)
                for b, n in zip(beta, names)}
    return c0, template, math.sqrt(var_lin)


def estimate_importance(offset_fn: OffsetFn,
                        mismatch: MismatchModel,
                        ratios: Mapping[str, float],
                        config: EstimatorConfig,
                        failure_rate: float,
                        seed: int,
                        pilot_shifts: Mapping[str, np.ndarray],
                        pilot_offsets: np.ndarray) -> TailEstimate:
    """Mixture-IS tail estimate of ``offset_fn`` over the mismatch space.

    The pilot population (typically the nominal Monte-Carlo run, reused
    at zero simulation cost) fixes the tilt direction and magnitude;
    the likelihood-ratio weights make the estimate exact regardless of
    how crude that pilot model is — a bad pilot only costs variance,
    visible in the ESS.
    """
    sigmas = mismatch.sigma_circuit(ratios)
    c0, template, sigma_lin = _pilot_direction(pilot_shifts, pilot_offsets,
                                               sigmas)
    if config.shift_z is not None:
        target = abs(c0) + config.shift_z * sigma_lin
    else:
        pilot_fit = fit_normal(np.asarray(pilot_offsets, dtype=float))
        sigma_fit = pilot_fit.sigma if pilot_fit.sigma > 0.0 else sigma_lin
        try:
            target = offset_spec(pilot_fit.mu, sigma_fit, failure_rate)
        except ValueError:
            target = abs(pilot_fit.mu) + sigma_level(failure_rate) * sigma_fit
    mean_pos = {n: (target - c0) * t for n, t in template.items()}
    mean_neg = {n: (-target - c0) * t for n, t in template.items()}
    alpha = config.defensive
    proposal = MixtureProposal(
        mismatch=mismatch, ratios=dict(ratios),
        weights=(alpha, (1.0 - alpha) / 2.0, (1.0 - alpha) / 2.0),
        means=({}, mean_pos, mean_neg),
        widths=(1.0, config.widen, config.widen))
    shifts = proposal.sample(config.samples, seed)
    with PERF.timer("rare_event.simulate"):
        offsets = np.asarray(offset_fn(shifts), dtype=float)
    if offsets.shape != (config.samples,):
        raise ValueError("offset_fn returned wrong shape "
                         f"{offsets.shape}, expected ({config.samples},)")
    log_w = proposal.log_weight(shifts)
    clips = 0
    if config.weight_clip is not None:
        cap = math.log(config.weight_clip)
        clips = int(np.sum(log_w > cap))
        log_w = np.minimum(log_w, cap)
    w = np.exp(log_w)
    ess = float(w.sum() ** 2 / (w * w).sum())
    out_of_range = int(np.sum(np.isnan(offsets)))
    PERF.count("rare_event.estimates")
    PERF.count("rare_event.proposal_draws", config.samples)
    PERF.count("rare_event.weight_clips", clips)
    PERF.count("rare_event.out_of_range", out_of_range)
    PERF.gauge("rare_event.ess", ess)
    return TailEstimate(kind="is", offsets=offsets, log_weights=log_w,
                        scales=None, n_simulated=config.samples,
                        pilot_count=len(np.asarray(pilot_offsets)),
                        ess=ess, clip_events=clips,
                        out_of_range=out_of_range,
                        bootstrap=config.bootstrap,
                        ci_level=config.ci_level, seed=seed)


def estimate_scaled_sigma(offset_fn: OffsetFn,
                          mismatch: MismatchModel,
                          ratios: Mapping[str, float],
                          config: EstimatorConfig,
                          seed: int) -> TailEstimate:
    """Scaled-sigma tail estimate of ``offset_fn``.

    One base standard-normal population is drawn once and re-scaled for
    every ladder rung (common random numbers), so rate differences
    between scales are not masked by resampling noise — the same
    discipline the nominal tables use for aged-vs-fresh contrasts.
    """
    base = mismatch.sample_circuit_keyed(ratios, config.samples, seed,
                                         stream=_STREAM_SSS_Z)
    scales = np.asarray(sorted(config.scales), dtype=float)
    all_offsets = []
    for s in scales:
        shifts = {name: s * draws for name, draws in base.items()}
        with PERF.timer("rare_event.simulate"):
            offsets = np.asarray(offset_fn(shifts), dtype=float)
        if offsets.shape != (config.samples,):
            raise ValueError("offset_fn returned wrong shape "
                             f"{offsets.shape}, expected "
                             f"({config.samples},)")
        all_offsets.append(offsets)
    offsets = np.concatenate(all_offsets)
    scale_col = np.repeat(scales, config.samples)
    n_total = int(offsets.size)
    out_of_range = int(np.sum(np.isnan(offsets)))
    PERF.count("rare_event.estimates")
    PERF.count("rare_event.scaled_sigma_draws", n_total)
    PERF.count("rare_event.out_of_range", out_of_range)
    PERF.gauge("rare_event.ess", float(n_total))
    return TailEstimate(kind="scaled-sigma", offsets=offsets,
                        log_weights=None, scales=scale_col,
                        n_simulated=n_total, pilot_count=0,
                        ess=float(n_total), clip_events=0,
                        out_of_range=out_of_range,
                        bootstrap=config.bootstrap,
                        ci_level=config.ci_level, seed=seed)


def estimate_tail(offset_fn: OffsetFn,
                  mismatch: MismatchModel,
                  ratios: Mapping[str, float],
                  config: EstimatorConfig,
                  seed: int,
                  failure_rate: float = 1e-9,
                  pilot_shifts: Optional[Mapping[str, np.ndarray]] = None,
                  pilot_offsets: Optional[np.ndarray] = None,
                  ) -> TailEstimate:
    """Run the estimator selected by ``config.kind``.

    ``kind="fit"`` has no direct-sampling tail and is rejected here —
    callers keep the paper's normal-fit path for it.
    """
    if config.kind == "is":
        if pilot_shifts is None or pilot_offsets is None:
            raise ValueError("importance sampling needs a pilot "
                             "population (shifts + offsets)")
        return estimate_importance(offset_fn, mismatch, ratios, config,
                                   failure_rate, seed,
                                   pilot_shifts, pilot_offsets)
    if config.kind == "scaled-sigma":
        return estimate_scaled_sigma(offset_fn, mismatch, ratios, config,
                                     seed)
    raise ValueError(f"estimator kind {config.kind!r} has no "
                     "direct-sampling tail")
