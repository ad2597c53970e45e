"""The guided offset search equals plain bisection, bit for bit.

``extract_offsets`` searches every in-range sample outward from a
linear prediction of its flip cell, seeded by a probe cached per
netlist.  Each case below runs a population large enough to take that
path and compares it with plain full-range bisection of the same
population on a fresh bench (the guided path switched off by raising
``GUIDED_MIN_ITERATIONS`` past any search depth).  Every test starts
from an empty predictor table.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core import offset
from repro.core.cache import ResultCache
from repro.core.calibration import default_aging_model
from repro.core.experiment import ExperimentCell, build_design, run_cell
from repro.core.montecarlo import McSettings, sample_total_shifts
from repro.core.testbench import SenseAmpTestbench
from repro.models import Environment, MismatchModel
from repro.service import Client, JobRequest, Service
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)
BATCH = 128

#: Array-valued shifts of a Monte-Carlo population: one per device.
DEVICES = len(build_design("nssa").circuit.mosfets)


@pytest.fixture(autouse=True)
def empty_probe_table(monkeypatch):
    monkeypatch.setattr(offset, "_PROBES", {})


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
        patch.setattr(offset, "GUIDED_MIN_ITERATIONS",
                      offset.MAX_ITERATIONS + 1)
        plain = offset.extract_offsets(bench(design, env, shifts),
                                       **kwargs)
    return guided, plain, counters


def assert_bitwise(guided, plain):
    """Equal floats, NaN where the other is NaN (``assert_array_equal``)."""
    np.testing.assert_array_equal(guided, plain)


def assert_accounted(guided, counters):
    """Every in-range sample took the gallop."""
    candidates = int(np.isfinite(guided).sum())
    assert counters.get("offset.guided_samples", 0) == candidates


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
    """An aged 125 degC NSSA cell, where the linear prediction is
    furthest off."""
    design, env, shifts = population("nssa", "80r1", 1e8, temp_c=125.0,
                                     size=200)
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               shifts)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)


def test_scaled_mismatch(monkeypatch):
    """3.5x mismatch, as the importance-sampling tail proposes."""
    design, env, shifts = population("nssa")
    scaled = {name: 3.5 * value for name, value in shifts.items()}
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               scaled)
    assert_bitwise(guided, plain)
    assert_accounted(guided, counters)


def test_poor_pilot_fit_forces_misses(monkeypatch):
    """A pilot of one repeated sample cannot refit the slopes: its
    shifts span one direction, so only the pilot gallops (from the
    probe) and the other samples are bisected in full."""
    design, env, shifts = population("nssa")
    flat = {name: value.copy() for name, value in shifts.items()}
    for value in flat.values():
        value[:offset.PILOT] = value[-1]
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               flat)
    assert_bitwise(guided, plain)
    pilot = int(np.isfinite(guided[:offset.PILOT]).sum())
    assert pilot > 0
    assert counters["offset.guided_samples"] == pilot


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
    (BATCH, offset.GUIDED_MIN_ITERATIONS - 1),
    (DEVICES + 1, offset.SEARCH_ITERATIONS),
])
def test_small_inputs_take_the_full_range(monkeypatch, size, iterations):
    """Too shallow a search, or no more samples than a probe has."""
    guided, plain, counters = guided_and_plain(
        monkeypatch, *population("nssa", size=size),
        iterations=iterations)
    assert_bitwise(guided, plain)
    assert "offset.guided_samples" not in counters
    assert "offset.probes" not in counters
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


#: Predicted-cell errors: exact, one cell either way, past 64 cells,
#: and far enough to be clipped at a range edge.
ERRORS = st.one_of(st.sampled_from([0, 1, -1, 33, -33, 65, -65]),
                   st.integers(-1 << 15, 1 << 15))


@pytest.mark.parametrize("search_range", [0.25, 0.3, 0.1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gallop_equals_full_range(search_range, data):
    """Galloping from any predicted cell ends where plain bisection
    ends, for dyadic and other ranges, and costs about ``2*log2(d) + 2``
    reads for a prediction ``d`` cells off.

    Every threshold sits exactly on a grid point as plain bisection
    computes it, so a read one ulp off that value (``-R + k * h``, or
    halving unaligned bracket ends) resolves the other way.
    """
    iterations = 14
    cells = 1 << iterations
    flip = np.array(data.draw(st.lists(
        st.one_of(st.integers(0, cells - 1),
                  st.sampled_from([0, 1, cells - 2, cells - 1])),
        min_size=1, max_size=24)))
    error = np.array(data.draw(st.lists(
        ERRORS, min_size=flip.size, max_size=flip.size)))
    step = 2.0 * search_range / cells
    thresholds, _ = float_bisection(
        -search_range + (flip + 0.5) * step, search_range, iterations)
    lo, hi = float_bisection(thresholds, search_range, iterations)
    plain = 0.5 * (lo + hi)

    bench = ThresholdBench(thresholds)
    grid = offset._Grid(search_range, iterations, False, 0.0)
    np.testing.assert_array_equal(offset._full_range(grid, bench), plain)
    PERF.reset()
    np.testing.assert_array_equal(
        offset._gallop(grid, bench, flip + error), plain)

    start = np.clip(flip + error, 1, cells - 1)
    off = np.where(flip >= start, flip - start, start - 1 - flip)
    reads = PERF.snapshot()["counters"]["offset.bisection_iterations"]
    assert reads <= 2 * int(np.ceil(np.log2(off.max() + 2)))


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


# -- the cached predictor ------------------------------------------------

def poison_probes():
    """Negate every cached slope and move every intercept by 0.2 V."""
    assert offset._PROBES
    for coef in offset._PROBES.values():
        coef[:-1] = -coef[:-1]
        coef[-1] += 0.2


@pytest.mark.parametrize("size", [16, BATCH])
def test_poisoned_predictor_stays_exact(monkeypatch, size):
    """A predictor pointing the wrong way costs reads, not bits: a
    small batch gallops every sample from it, a large one its pilot."""
    design, env, shifts = population("nssa", "80r0", 1e8, size=size,
                                     seed=2018)
    offset.extract_offsets(bench(design, env, shifts))
    poison_probes()
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               shifts)
    assert_bitwise(guided, plain)
    assert "offset.probes" not in counters
    assert_accounted(guided, counters)


def test_small_batch_gallops_from_the_probe(monkeypatch):
    design, env, shifts = population("issa", size=16)
    guided, plain, counters = guided_and_plain(monkeypatch, design, env,
                                               shifts)
    assert_bitwise(guided, plain)
    assert counters["offset.probes"] == 1
    assert_accounted(guided, counters)


MC16 = McSettings(size=16, seed=2017, mismatch=MismatchModel())
TABLE2_WORKLOADS = ("80r0", "80r1", "80r0r1", "20r0", "20r1")


def test_one_probe_per_netlist_and_corner():
    """Ten mc-16 cells of one scheme and corner probe once; the ISSA,
    another netlist, probes once more."""
    cells = [ExperimentCell("nssa", paper_workload(name), time_s)
             for name in TABLE2_WORKLOADS for time_s in (1e7, 1e8)]
    PERF.reset()
    for cell in cells:
        run_cell(cell, settings=MC16, timing=TIMING, measure_delay=False)
    counters = PERF.snapshot()["counters"]
    assert counters["offset.probes"] == 1
    assert counters["offset.guided_samples"] > 0
    run_cell(ExperimentCell("issa", paper_workload("80r0"), 1e8),
             settings=MC16, timing=TIMING, measure_delay=False)
    assert PERF.snapshot()["counters"]["offset.probes"] == 2


def test_probe_enters_no_key_or_result(tmp_path):
    """A warm predictor table changes neither the cache key nor the
    offsets of a cell."""
    cell = ExperimentCell("nssa", paper_workload("80r1"), 1e8)
    cache = ResultCache(tmp_path)
    kwargs = dict(settings=MC16, timing=TIMING)
    key = cache.key_for_cell(cell, **kwargs)
    cold = run_cell(cell, measure_delay=False, **kwargs)
    assert offset._PROBES
    assert cache.key_for_cell(cell, **kwargs) == key
    warm = run_cell(cell, measure_delay=False, **kwargs)
    np.testing.assert_array_equal(warm.offset.offsets, cold.offset.offsets)


def test_service_job_gallops_from_the_probe(tmp_path):
    """In-thread service jobs share the process's predictor table."""
    fields = dict(scheme="nssa", time_s=1e8, mc=16, seed=2017, dt=1e-12,
                  measure_delay=False)
    with Service(directory=tmp_path, autostart=False) as service:
        client = Client(service)
        first = client.submit(JobRequest(workload="80r0", **fields))
        client.wait(first, timeout=120)
        PERF.reset()
        second = client.submit(JobRequest(workload="20r1", **fields))
        client.wait(second, timeout=120)
    counters = PERF.snapshot()["counters"]
    assert counters["cell.runs"] == 1
    assert "offset.probes" not in counters
    assert counters["offset.guided_samples"] > 0


def test_racing_threads_share_one_predictor(monkeypatch):
    """Threads that miss the table together each probe, write the same
    entry and keep plain bisection's offsets."""
    design, env, shifts = population("nssa", size=16)
    with monkeypatch.context() as patch:
        patch.setattr(offset, "GUIDED_MIN_ITERATIONS",
                      offset.MAX_ITERATIONS + 1)
        plain = offset.extract_offsets(bench(design, env, shifts))
    results = {}

    def extract(index):
        design, env, shifts = population("nssa", size=16)
        results[index] = offset.extract_offsets(bench(design, env, shifts))

    threads = [threading.Thread(target=extract, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for guided in results.values():
        assert_bitwise(guided, plain)
    (coef,) = offset._PROBES.values()
    offset._PROBES.clear()
    offset.extract_offsets(bench(design, env, shifts))
    np.testing.assert_array_equal(coef, *offset._PROBES.values())
