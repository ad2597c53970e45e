"""Offset-voltage extraction by batched binary search.

Follows the paper's methodology (taken from Agbo et al. [14]): for each
Monte-Carlo sample, the offset voltage is the input differential at
which the SA's resolution flips, found by binary search on its inputs.
All samples run simultaneously — each binary-search iteration is one
batched transient simulation with a per-sample input level.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.perf import PERF
from ..analysis.stats import NormalFit, fit_normal
from ..analysis.failure import failure_rate_at, offset_spec
from ..constants import FAILURE_RATE_TARGET
from ..models.variation import keyed_rng
from .rare_event import Estimate, TailEstimate, percentile_ci
from .testbench import (PERTURBATION_DEFAULT, SenseAmpTestbench,
                        perturbation_bench)

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

#: Guided-search pilot: in a batch of more than ``2 * PILOT`` samples
#: the first ``PILOT`` are galloped from the probe's prediction and
#: refit the predictor for the rest of the batch.
PILOT = 48

#: Shallowest search that takes the guided path.  On a 2-step grid of
#: 4 cells the gallop saves no read; from 3 steps on it saves 15 % and
#: more.
GUIDED_MIN_ITERATIONS = 3

#: Most predictors one process keeps (one per netlist, corner, timing
#: and read kind); the table is emptied when full.
PROBE_TABLE_SIZE = 64

#: Process-local predictor table of :func:`_predictor`.  Racing threads
#: compute the same entry for a key, so its writes need no lock.
_PROBES: Dict[str, Optional[np.ndarray]] = {}

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
    exact value plain bisection computes for it, so a search may read
    the grid points in any order and still read bit-identical inputs.
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
    """Plain bisection over the whole search range.

    Each read tests the midpoint of every bracket and keeps the half
    whose ends disagree; returns the midpoint of the final bracket, the
    flip threshold [V] of every active sample.
    """
    v_lo = np.full(bench.batch_size, -grid.search_range)
    v_hi = np.full(bench.batch_size, grid.search_range)
    for _ in range(grid.iterations):
        PERF.count("offset.bisection_iterations")
        v_mid = 0.5 * (v_lo + v_hi)
        rises = grid.rises(bench, v_mid, active)
        v_hi = np.where(rises, v_mid, v_hi)
        v_lo = np.where(rises, v_lo, v_mid)
    return 0.5 * (v_lo + v_hi)


def _gallop(grid: _Grid, bench: SenseAmpTestbench,
            cell: np.ndarray) -> np.ndarray:
    """Flip thresholds of in-range samples, searched outward from ``cell``.

    Every sample falls at grid index 0 and rises at ``grid.cells``, so
    its bracket starts as the whole grid.  The first read probes the
    sample's own start cell (clipped to ``1 .. cells - 1``); the probes
    then move on from the bracket end it set in doubling steps (1, 2,
    4, ... cells) until the sign turns or the next step would leave the
    bracket, and bisection closes the bracket to one cell.  Each round
    is one batched read of the samples still open.  The final cell is
    plain bisection's flip cell and :meth:`_Grid.point` gives its ends
    as plain bisection's floats, so the result is plain bisection's.
    """
    lo = np.zeros(cell.size, dtype=np.int64)
    hi = np.full(cell.size, grid.cells, dtype=np.int64)
    k = np.clip(cell, 1, grid.cells - 1).astype(np.int64)
    stride = np.ones(cell.size, dtype=np.int64)  # 0 once bisecting
    up = None
    active = np.ones(cell.size, dtype=bool)
    while active.any():
        PERF.count("offset.bisection_iterations")
        rises = grid.rises(bench, grid.point(k), active)
        hi = np.where(active & rises, k, hi)
        lo = np.where(active & ~rises, k, lo)
        if up is None:  # gallop away from the first probe
            up = ~rises
        # Once the sign turns, the next step lies past the other end.
        k = np.where(up, lo + stride, hi - stride)
        inside = (lo < k) & (k < hi)
        stride = np.where(inside, 2 * stride, 0)
        k = np.where(inside, k, (lo + hi) // 2)
        active = hi - lo > 1
    return 0.5 * (grid.point(lo) + grid.point(hi))


def _predictor(testbench: SenseAmpTestbench, names: Tuple[str, ...],
               grid: _Grid) -> Optional[np.ndarray]:
    """Slopes and intercept of the flip threshold in the shifts ``names``.

    Looked up in a process-local table keyed by the netlist's
    fingerprint, the corner, the timing, the read kind and ``names``.
    On a miss one probe bench of ``1 + len(names)`` one-hot samples
    (:func:`~repro.core.testbench.perturbation_bench`) is bisected over
    the default grid and its flips give the coefficients, one slope per
    device plus a constant.  ``None`` when a probe sample is out of
    range.  The predictor only picks where each search starts, so a
    stale or poor one costs reads and never moves a result.
    """
    from .cache import fingerprint, netlist_fingerprint
    key = fingerprint({"netlist": netlist_fingerprint(
                           testbench.design.circuit),
                       "env": testbench.env, "timing": testbench.timing,
                       "swapped": grid.swapped,
                       "t_window": grid.t_window, "devices": names})
    try:
        return _PROBES[key]
    except KeyError:
        pass
    PERF.count("offset.probes")
    probe = perturbation_bench(testbench.design, testbench.env, names,
                               timing=testbench.timing,
                               newton=testbench.newton,
                               early_decision=testbench.early_decision,
                               backend=testbench.backend)
    flip = -extract_offsets(probe, swapped=grid.swapped,
                            t_window=grid.t_window)
    coef = np.append((flip[1:] - flip[0]) / PERTURBATION_DEFAULT, flip[0])
    if not np.isfinite(coef).all():
        coef = None
    if len(_PROBES) >= PROBE_TABLE_SIZE:
        _PROBES.clear()
    _PROBES[key] = coef
    return coef


def _search(grid: _Grid, testbench: SenseAmpTestbench, index: np.ndarray,
            features: np.ndarray, coef: Optional[np.ndarray]) -> np.ndarray:
    """Flip thresholds of the in-range samples ``index`` (sorted), on
    one sub-testbench: galloped from the grid cell ``features @ coef``
    predicts, or bisected in full without a predictor."""
    if not index.size:
        return np.empty(0)
    # With every sample in range the bench itself serves: its seeds are
    # forgotten, so it reads as a fresh copy would.
    bench = (testbench if index.size == testbench.batch_size
             else _sub_bench(testbench, index))
    if coef is None:
        return _full_range(grid, bench)
    PERF.count("offset.guided_samples", index.size)
    step = 2.0 * grid.search_range / grid.cells
    cell = np.floor((features[index] @ coef + grid.search_range) / step)
    return _gallop(grid, bench, cell)


def _guided_search(grid: _Grid, testbench: SenseAmpTestbench,
                   names: Tuple[str, ...],
                   in_range: np.ndarray) -> np.ndarray:
    """Flip thresholds of the in-range samples, each galloped from a
    linear prediction of its flip cell.

    The prediction is the per-device Vth shifts ``names`` plus a
    constant, weighted by the cached probe's coefficients
    (:func:`_predictor`).  A batch of more than ``2 * PILOT`` samples
    gallops its first :data:`PILOT` samples from the probe, refits the
    coefficients by least squares on their exact flips, and gallops the
    rest from that batch-specific fit; a pilot whose shifts do not span
    the rest (a repeated sample, say) cannot place them, so they are
    bisected in full.  A smaller batch gallops every sample from the
    probe.  A sample whose sign is monotone in the input has one flip
    cell and every read lands on a grid point, so the result is plain
    bisection's, bit for bit, however far off the prediction is; a
    sample ``d`` cells off costs about ``2*log2(d) + 2`` reads.
    """
    batch = testbench.batch_size
    shifts = testbench.system.vth_shifts()
    features = np.column_stack([shifts[name] for name in names]
                               + [np.ones(batch)])
    coef = _predictor(testbench, names, grid)
    flip = np.full(batch, np.nan)
    if batch <= 2 * PILOT:
        guided = np.flatnonzero(in_range)
        flip[guided] = _search(grid, testbench, guided, features, coef)
        return flip

    pilot = np.flatnonzero(in_range[:PILOT])
    flip[pilot] = _search(grid, testbench, pilot, features, coef)
    guided = PILOT + np.flatnonzero(in_range[PILOT:])
    if not guided.size:
        return flip
    coef, _, rank, _ = np.linalg.lstsq(features[pilot], flip[pilot],
                                       rcond=None)
    if rank < np.linalg.matrix_rank(features[guided]):
        coef = None  # the pilot does not span the samples it would place
    flip[guided] = _search(grid, testbench, guided, features, coef)
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

    A batch with ``D`` array-valued Vth shifts takes the guided search
    when it holds more than ``D + 1`` samples and is searched for at
    least :data:`GUIDED_MIN_ITERATIONS` iterations: every in-range
    sample gallops outward from a predicted grid cell, seeded by a
    per-netlist probe that is paid once per process (see
    :func:`_guided_search`).  Its results equal plain bisection's bit
    for bit.  Smaller batches, such as the probe itself, bisect the
    full range.

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

    names = tuple(name for name, shift
                  in testbench.system.vth_shifts().items()
                  if isinstance(shift, np.ndarray) and shift.ndim)
    if (iterations >= GUIDED_MIN_ITERATIONS and names
            and batch > len(names) + 1):
        # No sign read on this bench follows: free the endpoint seed,
        # which pins the whole 2x-batch state history.
        testbench.forget_trajectories()
        flip = _guided_search(grid, testbench, names, in_range)
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
