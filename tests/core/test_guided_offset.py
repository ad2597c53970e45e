"""The guided offset search equals plain bisection, bit for bit.

``extract_offsets`` brackets every sample past a fully bisected pilot
around a linear prediction and bisects only inside the bracket.  Each
case below runs a population large enough to take that path and
compares it with plain full-range bisection of the same population on a
fresh bench (the guided path switched off by raising ``PILOT``).
"""

import numpy as np
import pytest

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core import offset
from repro.core.calibration import default_aging_model
from repro.core.experiment import ExperimentCell, build_design, run_cell
from repro.core.montecarlo import McSettings, sample_total_shifts
from repro.core.testbench import SenseAmpTestbench
from repro.models import Environment, MismatchModel
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)
BATCH = 128


def population(scheme="nssa", workload=None, time_s=0.0, temp_c=25.0,
               size=BATCH, seed=2017):
    """Total Vth shifts of one Monte-Carlo cell population."""
    design = build_design(scheme)
    env = Environment.from_celsius(temp_c)
    settings = McSettings(size=size, seed=seed, mismatch=MismatchModel())
    shifts = sample_total_shifts(
        design, default_aging_model(), paper_workload(workload)
        if workload else None, time_s, env, settings)
    return design, env, shifts


def bench(design, env, shifts):
    size = len(next(iter(shifts.values())))
    testbench = SenseAmpTestbench(design, env, batch_size=size,
                                  timing=TIMING)
    testbench.set_vth_shifts(shifts)
    return testbench


def guided_and_plain(monkeypatch, design, env, shifts, **kwargs):
    """(guided offsets, plain offsets, guided-run PERF counters)."""
    PERF.reset()
    guided = offset.extract_offsets(bench(design, env, shifts), **kwargs)
    counters = dict(PERF.snapshot()["counters"])
    with monkeypatch.context() as patch:
        patch.setattr(offset, "PILOT", 10 ** 9)
        plain = offset.extract_offsets(bench(design, env, shifts),
                                       **kwargs)
    return guided, plain, counters


def assert_bitwise(guided, plain):
    """Equal floats, NaN where the other is NaN (``assert_array_equal``)."""
    np.testing.assert_array_equal(guided, plain)


def assert_accounted(guided, counters):
    """Every in-range sample past the pilot is either a hit or a miss."""
    candidates = int(np.isfinite(guided[offset.PILOT:]).sum())
    assert (counters.get("offset.guided_samples", 0)
            + counters.get("offset.guided_misses", 0)) == candidates


def test_nominal_nssa(monkeypatch):
    guided, plain, counters = guided_and_plain(
        monkeypatch, *population("nssa"))
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)
    assert counters["offset.guided_samples"] > 0


@pytest.mark.parametrize("swapped", [False, True])
def test_nominal_issa_both_pass_pairs(monkeypatch, swapped):
    """Swapped reads (ISSA only) bisect a falling decision."""
    guided, plain, counters = guided_and_plain(
        monkeypatch, *population("issa"), swapped=swapped)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)


def test_aged_hot_nssa_misses_fall_back(monkeypatch):
    """An aged 125 degC NSSA cell has real prediction misses."""
    design, env, shifts = population("nssa", "80r1", 1e8, temp_c=125.0,
                                     size=200)
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               shifts)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)
    assert counters.get("offset.guided_misses", 0) > 0


def test_scaled_mismatch(monkeypatch):
    """3.5x mismatch, as the importance-sampling tail proposes."""
    design, env, shifts = population("nssa")
    scaled = {name: 3.5 * value for name, value in shifts.items()}
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               scaled)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)


def test_poor_pilot_fit_forces_misses(monkeypatch):
    """A pilot of one repeated sample cannot fit the slopes: most
    brackets miss and go through the full-range fallback."""
    design, env, shifts = population("nssa")
    flat = {name: value.copy() for name, value in shifts.items()}
    for value in flat.values():
        value[:offset.PILOT] = value[-1]
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               flat)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)
    assert counters["offset.guided_misses"] > counters.get(
        "offset.guided_samples", 0)


def test_out_of_range_samples_stay_nan(monkeypatch):
    design, env, shifts = population("nssa")
    skewed = {name: value.copy() for name, value in shifts.items()}
    outside = [3, offset.PILOT + 5, BATCH - 1]  # pilot, guided, last
    skewed["Mdown"][outside] = 0.5
    guided, plain, counters = guided_and_plain(
        monkeypatch, design, env, skewed, search_range=0.1)
    assert_bitwise(guided, plain)
    assert np.all(np.isnan(guided[outside]))
    assert np.isfinite(np.delete(guided, outside)).all()
    assert_accounted(guided, counters)


def test_non_dyadic_search_range(monkeypatch):
    """Grid values are replayed, so a 0.3 V range stays exact."""
    guided, plain, counters = guided_and_plain(
        monkeypatch, *population("nssa"), search_range=0.3)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)


@pytest.mark.parametrize("size,iterations", [
    (BATCH, offset.WINDOW_BITS + 1),
    (2 * offset.PILOT, offset.SEARCH_ITERATIONS),
])
def test_small_inputs_take_the_full_range(monkeypatch, size, iterations):
    guided, plain, counters = guided_and_plain(
        monkeypatch, *population("nssa", size=size),
        iterations=iterations)
    assert_bitwise(guided, plain)
    assert "offset.guided_samples" not in counters
    assert "offset.guided_misses" not in counters
    assert counters["offset.bisection_iterations"] == iterations


class ThresholdBench:
    """A bench whose samples flip exactly at fixed input thresholds."""

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self.batch_size = thresholds.size

    def resolve_sign(self, vin, swapped=False, t_window=None,
                     sample_mask=None):
        return np.sign(vin - self.thresholds)


def float_bisection(thresholds, search_range, iterations):
    """The plain bisection loop on values, as a reference."""
    lo = np.full(thresholds.size, -search_range)
    hi = np.full(thresholds.size, search_range)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        rises = np.sign(mid - thresholds) > 0
        hi, lo = np.where(rises, mid, hi), np.where(rises, lo, mid)
    return lo, hi


@pytest.mark.parametrize("search_range", [0.25, 0.3, 0.1])
def test_window_bisection_replays_plain_arithmetic(search_range):
    """Bisecting any 64-cell window of the grid that holds the flip
    ends where plain bisection ends, for dyadic and other ranges.

    Every threshold sits exactly on a grid point as plain bisection
    computes it, so a read one ulp off that value (``-R + k * h``, or
    halving unaligned window ends) resolves the other way.
    """
    rng = np.random.default_rng(5)
    iterations, width = 14, 1 << offset.WINDOW_BITS
    thresholds, _ = float_bisection(
        rng.uniform(-0.9, 0.9, 500) * search_range, search_range,
        iterations)
    lo, hi = float_bisection(thresholds, search_range, iterations)

    plain = 0.5 * (lo + hi)

    bench = ThresholdBench(thresholds)
    grid = offset._Grid(search_range, iterations, False, 0.0)
    np.testing.assert_array_equal(offset._full_range(grid, bench), plain)
    flip = np.searchsorted(grid.point(np.arange(grid.cells)), plain) - 1
    start = np.clip(flip - rng.integers(0, width, flip.size), 0,
                    grid.cells - width)
    assert np.any(start % width)  # unaligned brackets are replayed
    np.testing.assert_array_equal(
        offset._bisect(grid, bench, start, start + width,
                       offset.WINDOW_BITS), plain)


def test_depth_limit(nssa_bench):
    with pytest.raises(ValueError, match="at most"):
        offset.extract_offsets(nssa_bench,
                               iterations=offset.MAX_ITERATIONS + 1)


@pytest.mark.parametrize("chunk_size", [100, 160])
def test_run_cell_chunking_is_bitwise(chunk_size):
    cell = ExperimentCell("nssa", paper_workload("80r0"), 1e8)
    settings = McSettings(size=260, seed=2017, mismatch=MismatchModel())
    kwargs = dict(settings=settings, timing=TIMING, measure_delay=False)
    whole = run_cell(cell, **kwargs)
    chunked = run_cell(cell, chunk_size=chunk_size, **kwargs)
    np.testing.assert_array_equal(chunked.offset.offsets,
                                  whole.offset.offsets)
    assert chunked.offset.spec == whole.offset.spec
