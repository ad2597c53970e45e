"""Offset-voltage extraction by batched binary search.

Follows the paper's methodology (taken from Agbo et al. [14]): for each
Monte-Carlo sample, the offset voltage is the input differential at
which the SA's resolution flips, found by binary search on its inputs.
All samples run simultaneously — each binary-search iteration is one
batched transient simulation with a per-sample input level.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..analysis.perf import PERF
from ..analysis.stats import NormalFit, fit_normal
from ..analysis.failure import failure_rate_at, offset_spec
from ..constants import FAILURE_RATE_TARGET
from ..models.variation import keyed_rng
from .rare_event import Estimate, TailEstimate, percentile_ci
from .testbench import SenseAmpTestbench

#: Shortened transient window for resolution-sign checks [s]; the latch
#: decision is fixed well before the outputs settle to full swing.
OFFSET_WINDOW = 60e-12

#: Default binary-search input range [V]; generously covers the paper's
#: worst aged distributions (|mu| < 80 mV, sigma < 20 mV).
SEARCH_RANGE = 0.25

#: Default number of bisection iterations (resolution ~ 30 uV over the
#: default range, far below the ~15 mV distribution sigma).
SEARCH_ITERATIONS = 14

#: Bisection depth limit: grid indices are int64.  Past ~54 steps the
#: grid is finer than the doubles near the range ends anyway.
MAX_ITERATIONS = 62

#: Guided-search pilot: the first ``PILOT`` samples of a batch are
#: bisected over the full range and fit the offset predictor.
PILOT = 48

#: Guided-search bracket: every predicted sample is bisected inside a
#: ``2**WINDOW_BITS``-cell bracket of the bisection grid.
WINDOW_BITS = 6

#: Spawn-key lane of the normal-fit bootstrap (fit-path ``spec_ci``).
_FIT_BOOT_STREAM = 0x0F17


def fit_offsets(offsets: np.ndarray) -> NormalFit:
    """Normal fit of an offset population, counting discarded samples.

    NaN offsets (binary search could not bracket the sample — its
    offset exceeds the search range) are excluded by
    :func:`~repro.analysis.stats.fit_normal`; this wrapper records how
    many under ``offset.nan_fit_excluded`` so a silently skewed fit is
    visible in the perf report rather than invisible.
    """
    offsets = np.asarray(offsets, dtype=float)
    invalid = int(offsets.size - np.isfinite(offsets).sum())
    if invalid:
        PERF.count("offset.nan_fit_excluded", invalid)
    return fit_normal(offsets)


@dataclasses.dataclass(frozen=True)
class OffsetDistribution:
    """Extracted offset-voltage population and its normal fit.

    Attributes
    ----------
    offsets:
        Per-sample offset voltages [V]; NaN for non-monotone samples
        (none in practice).
    fit:
        Normal fit of the valid samples.
    failure_rate:
        Target failure rate used for the specification.
    tail:
        Optional rare-event tail estimate (importance sampling or
        scaled-sigma).  When present, spec queries use it instead of
        extrapolating the normal fit; the fit itself (``mu``/``sigma``)
        always describes the nominal population.
    """

    offsets: np.ndarray
    fit: NormalFit
    failure_rate: float = FAILURE_RATE_TARGET
    tail: Optional[TailEstimate] = None

    @property
    def mu(self) -> float:
        """Distribution mean [V]."""
        return self.fit.mu

    @property
    def sigma(self) -> float:
        """Distribution standard deviation [V]."""
        return self.fit.sigma

    @property
    def invalid_count(self) -> int:
        """Samples excluded from the fit (offset out of search range)."""
        return int(self.offsets.size
                   - np.isfinite(np.asarray(self.offsets)).sum())

    @property
    def fit_spec(self) -> float:
        """Normal-fit (Eq. 3) specification [V], tail ignored."""
        return offset_spec(self.fit.mu, self.fit.sigma, self.failure_rate)

    @property
    def spec(self) -> float:
        """Offset-voltage specification [V] at the target failure rate.

        Solves Eq. (3) on the normal fit (the paper's method) unless a
        rare-event tail estimate is attached, in which case the
        directly-sampled tail answers instead.
        """
        return self.spec_at(self.failure_rate)

    def spec_at(self, failure_rate: float) -> float:
        """Specification [V] for an alternative failure-rate target."""
        if self.tail is not None:
            return self.tail.spec_point(failure_rate)
        return offset_spec(self.fit.mu, self.fit.sigma, failure_rate)

    def spec_ci(self, failure_rate: Optional[float] = None,
                bootstrap: int = 400, level: float = 0.95) -> Estimate:
        """Specification with a bootstrap confidence interval.

        With a tail estimate attached the interval comes from the
        estimator's own bootstrap (``bootstrap``/``level`` arguments
        are fixed at estimator configuration time and ignored here);
        otherwise the nominal population is resampled and re-fitted, so
        the interval reflects the fit-extrapolation uncertainty of the
        paper's method.
        """
        fr = self.failure_rate if failure_rate is None else failure_rate
        if self.tail is not None:
            return self.tail.spec_at(fr)
        point = offset_spec(self.fit.mu, self.fit.sigma, fr)
        reps = self._fit_bootstrap(
            lambda fit: offset_spec(fit.mu, fit.sigma, fr), bootstrap)
        lo, hi = percentile_ci(reps, level, point)
        return Estimate(point, lo, hi, level)

    def failure_rate_ci(self, spec: float, bootstrap: int = 400,
                        level: float = 0.95) -> Estimate:
        """Failure rate at ``spec`` with a bootstrap confidence interval."""
        if self.tail is not None:
            return self.tail.failure_rate_at(spec)
        point = failure_rate_at(spec, self.fit.mu, self.fit.sigma)
        reps = self._fit_bootstrap(
            lambda fit: failure_rate_at(spec, fit.mu, fit.sigma), bootstrap)
        lo, hi = percentile_ci(reps, level, point)
        return Estimate(point, lo, hi, level)

    def _fit_bootstrap(self, stat, bootstrap: int) -> np.ndarray:
        """Resample-and-refit replicates of a fit statistic."""
        offsets = np.asarray(self.offsets, dtype=float)
        rng = keyed_rng(offsets.size, _FIT_BOOT_STREAM)
        reps = np.full(bootstrap, np.nan)
        for b in range(bootstrap):
            sample = offsets[rng.integers(0, offsets.size, offsets.size)]
            try:
                reps[b] = stat(fit_normal(sample))
            except ValueError:
                pass
        return reps


@dataclasses.dataclass(frozen=True)
class _Grid:
    """The bisection grid of one extraction, and its sign reads.

    Bisecting ``[-search_range, +search_range]`` for ``iterations``
    steps visits the points of a ``2**iterations``-cell grid.  The
    search runs on grid *indices*; :meth:`point` turns an index into the
    exact value plain bisection computes for it, so a bracket may start
    at any grid point and still read bit-identical inputs.
    """

    search_range: float
    iterations: int
    swapped: bool
    t_window: float

    @property
    def cells(self) -> int:
        return 1 << self.iterations

    def point(self, k: np.ndarray) -> np.ndarray:
        """Values of grid points ``k`` (``0`` to ``cells``, 1-D).

        Replays the bisection's ``0.5 * (lo + hi)`` halvings along the
        bits of ``k`` down to its lowest set bit, so each value is the
        very float plain bisection computes for that point, for any
        ``search_range``.  (The closed form ``-search_range + k * step``
        agrees only for dyadic ranges such as the default.)
        """
        lo = np.full(k.shape, -self.search_range)
        hi = np.full(k.shape, self.search_range)
        # Halvings below every index's lowest set bit only move ``hi``.
        low = int(np.bitwise_or.reduce(k, initial=0))
        stop = (low & -low).bit_length() - 1 if low else self.iterations
        bits = np.arange(self.iterations - 1, stop - 1, -1)
        for up in ((k[:, None] >> bits) & 1).astype(bool).T:
            mid = 0.5 * (lo + hi)
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        return np.where(k == self.cells, self.search_range, lo)

    @property
    def polarity(self) -> float:
        # Through the swapped pass pair the internal differential is the
        # negated external input, so the resolution is *decreasing* in
        # vin; negating restores a rising decision for the bisection.
        return -1.0 if self.swapped else 1.0

    def rises(self, bench: SenseAmpTestbench, vin: np.ndarray,
              mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Whether each sample resolves +1 (rising frame) at ``vin``."""
        return self.polarity * bench.resolve_sign(
            vin, swapped=self.swapped, t_window=self.t_window,
            sample_mask=mask) > 0


def _bisect(grid: _Grid, bench: SenseAmpTestbench, lo: np.ndarray,
            hi: np.ndarray, steps: int,
            active: Optional[np.ndarray] = None) -> np.ndarray:
    """Bisect grid indices ``[lo, hi]`` for ``steps`` batched reads.

    Each read tests the index midpoint at its exact grid value and keeps
    the half whose ends disagree.  With ``hi - lo == 2**steps`` the
    final bracket is the flip cell of every active sample whose bracket
    ends disagree; returns its midpoint, the flip threshold [V].
    """
    # From brackets that are nodes of the bisection tree (the full range
    # is one) halving the end values is plain bisection's own
    # arithmetic; from any other bracket each midpoint is replayed.
    tree = bool(np.all(lo % (hi - lo) == 0))
    v_lo, v_hi = grid.point(lo), grid.point(hi)
    for _ in range(steps):
        PERF.count("offset.bisection_iterations")
        mid = (lo + hi) // 2
        v_mid = 0.5 * (v_lo + v_hi) if tree else grid.point(mid)
        rises = grid.rises(bench, v_mid, active)
        hi, v_hi = np.where(rises, mid, hi), np.where(rises, v_mid, v_hi)
        lo, v_lo = np.where(rises, lo, mid), np.where(rises, v_lo, v_mid)
    return 0.5 * (v_lo + v_hi)


def _sub_bench(testbench: SenseAmpTestbench,
               index: np.ndarray) -> SenseAmpTestbench:
    """A fresh testbench over the samples ``index`` of ``testbench``."""
    bench = SenseAmpTestbench(testbench.design, testbench.env,
                              batch_size=index.size,
                              timing=testbench.timing,
                              newton=testbench.newton,
                              early_decision=testbench.early_decision,
                              backend=testbench.backend)
    bench.set_vth_shifts({
        name: shift[index] if isinstance(shift, np.ndarray) and shift.ndim
        else shift
        for name, shift in testbench.system.vth_shifts().items()})
    return bench


def _full_range(grid: _Grid, bench: SenseAmpTestbench,
                active: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain bisection over the whole search range."""
    batch = bench.batch_size
    return _bisect(grid, bench, np.zeros(batch, dtype=np.int64),
                   np.full(batch, grid.cells, dtype=np.int64),
                   grid.iterations, active)


def _guided_search(grid: _Grid, testbench: SenseAmpTestbench,
                   in_range: np.ndarray,
                   mask_out_of_range: bool) -> np.ndarray:
    """Flip thresholds of a large batch via a pilot-fitted predictor.

    The first :data:`PILOT` samples are bisected in full; their flip
    thresholds are least-squares fitted on the per-device Vth shifts
    plus a constant.  Every other in-range sample gets a
    ``2**WINDOW_BITS``-cell bracket centred on its prediction; a read at
    each end confirms it and :data:`WINDOW_BITS` reads bisect inside it.  A
    sample whose sign is monotone in the input has one flip cell, a
    confirmed bracket contains it and its midpoints are grid points, so
    the result is plain bisection's, bit for bit.  Unconfirmed samples
    (misses) are bisected in full.  Each set runs on its own
    sub-testbench.
    """
    batch = testbench.batch_size
    flip = np.full(batch, np.nan)
    pilot = np.arange(PILOT)
    flip[pilot] = _full_range(grid, _sub_bench(testbench, pilot),
                              in_range[pilot] if mask_out_of_range
                              else None)

    shifts = [shift for shift in testbench.system.vth_shifts().values()
              if isinstance(shift, np.ndarray) and shift.ndim]
    features = np.column_stack(shifts + [np.ones(batch)])
    fitted = pilot[in_range[pilot]]
    coef = np.linalg.lstsq(features[fitted], flip[fitted], rcond=None)[0]

    guided = PILOT + np.flatnonzero(in_range[PILOT:])
    if not guided.size:
        return flip
    width = 1 << WINDOW_BITS
    step = 2.0 * grid.search_range / grid.cells
    centre = np.floor((features[guided] @ coef + grid.search_range) / step)
    start = np.clip(centre - width // 2, 0,
                    grid.cells - width).astype(np.int64)
    bench = _sub_bench(testbench, guided)
    # Two plain reads, not one fused 2x-batch read: the fused system
    # and its doubled state history raised a 400-sample cell's peak
    # RSS by ~4 MB (~4 %) and saved no measurable time.
    hit = (grid.rises(bench, grid.point(start + width))
           & ~grid.rises(bench, grid.point(start)))
    hits = int(hit.sum())
    PERF.count("offset.guided_samples", hits)
    PERF.count("offset.guided_misses", guided.size - hits)
    if hits:
        flip[guided] = _bisect(grid, bench, start, start + width,
                               WINDOW_BITS, hit)
    missed = guided[~hit]
    if missed.size:
        flip[missed] = _full_range(grid, _sub_bench(testbench, missed))
    return flip


def extract_offsets(testbench: SenseAmpTestbench,
                    search_range: float = SEARCH_RANGE,
                    iterations: int = SEARCH_ITERATIONS,
                    swapped: bool = False,
                    t_window: float = OFFSET_WINDOW,
                    mask_out_of_range: bool = True) -> np.ndarray:
    """Binary-search the per-sample offset voltages [V].

    The resolution sign is monotone in the input differential: large
    positive inputs resolve +1, large negative inputs -1.  Samples that
    violate monotonicity at the search-range endpoints (offset outside
    the range) are returned as NaN — and, with ``mask_out_of_range``,
    excluded from every subsequent bisection transient so the fast path
    never spends Newton iterations on samples whose result is already
    known to be NaN.

    Batches larger than ``2 * PILOT`` searched for more than
    ``WINDOW_BITS + 1`` iterations take the guided search (see
    :func:`_guided_search`); its results equal plain bisection's bit
    for bit.

    Sign convention follows the paper's figures: the offset voltage is
    the *extra input the SA demands*, so aging that favours reading 1
    (read-0-heavy workloads weakening the S-side pull-down) yields a
    **positive** mean offset.  Internally this is the negated flip
    threshold of the resolution sign.
    """
    if iterations < 1:
        raise ValueError("need at least one bisection iteration")
    if iterations > MAX_ITERATIONS:
        raise ValueError(f"at most {MAX_ITERATIONS} bisection iterations")
    if search_range <= 0.0:
        raise ValueError("search range must be positive")
    grid = _Grid(search_range, iterations, swapped, t_window)
    batch = testbench.batch_size

    # Both endpoint reads in one stacked 2x-batch transient.
    sign_hi, sign_lo = testbench.resolve_sign_pair(
        np.full(batch, +search_range), np.full(batch, -search_range),
        swapped=swapped, t_window=t_window)
    in_range = (grid.polarity * sign_hi > 0) & (grid.polarity * sign_lo < 0)
    active = in_range if mask_out_of_range else None
    PERF.count("offset.samples", batch)
    PERF.count("offset.samples_out_of_range", int(batch - in_range.sum()))

    if batch > 2 * PILOT and iterations > WINDOW_BITS + 1:
        # No sign read on this bench follows: free the endpoint seed,
        # which pins the whole 2x-batch state history.
        testbench.forget_trajectories()
        flip = _guided_search(grid, testbench, in_range,
                              mask_out_of_range)
    else:
        flip = _full_range(grid, testbench, active)
    return np.where(in_range, -flip, np.nan)


def offset_distribution(testbench: SenseAmpTestbench,
                        failure_rate: float = FAILURE_RATE_TARGET,
                        **kwargs) -> OffsetDistribution:
    """Extract offsets and fit the distribution in one call."""
    with PERF.timer("offset.extract"):
        offsets = extract_offsets(testbench, **kwargs)
    return OffsetDistribution(offsets=offsets, fit=fit_offsets(offsets),
                              failure_rate=failure_rate)
