"""Tests for the warm-start ladder: state reuse, trajectory seeding and
extrapolation."""

import numpy as np

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming, build_nssa
from repro.core.calibration import default_aging_model, default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.core.montecarlo import sample_total_shifts
from repro.core.offset import OFFSET_WINDOW
from repro.core.testbench import SenseAmpTestbench
from repro.models import Environment
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)
ENV = Environment.from_celsius(25.0, 1.0)


def aged_cell():
    return ExperimentCell("nssa", paper_workload("80r0"), 1e8, ENV)


def run(size=8, iterations=6):
    PERF.reset()
    result = run_cell(aged_cell(),
                      settings=default_mc_settings(size=size, seed=2017),
                      timing=TIMING, offset_iterations=iterations)
    return result, PERF.snapshot()["counters"]


def aged_bench(batch=8):
    design = build_nssa()
    bench = SenseAmpTestbench(design, ENV, batch_size=batch, timing=TIMING)
    bench.set_vth_shifts(sample_total_shifts(
        design, default_aging_model(), paper_workload("80r0"), 1e8, ENV,
        default_mc_settings(size=batch, seed=2017)))
    return bench


def sign_read(bench, vin):
    PERF.reset()
    signs = bench.resolve_sign(vin, t_window=OFFSET_WINDOW)
    return signs, PERF.snapshot()["counters"]


class TestSpecEquivalence:
    def test_repeat_run_bit_identical(self):
        first, _ = run()
        second, _ = run()
        np.testing.assert_array_equal(first.offset.offsets,
                                      second.offset.offsets)
        assert first.delay_s == second.delay_s


class TestIterationSavings:
    def test_warm_starts_reduce_newton_work(self):
        _, counters = run()
        assert counters["transient.warm_seeds"] > 0
        # The same sign read, seeded from a nearby read's trajectory
        # and unseeded (a fresh bench's first read): the seeds cut
        # Newton work without moving a decision.
        warm = aged_bench()
        sign_read(warm, 0.02)
        seeded_signs, seeded = sign_read(warm, 0.01)
        cold_signs, cold = sign_read(aged_bench(), 0.01)
        assert seeded["transient.warm_seeds"] > 0
        assert "transient.warm_seeds" not in cold
        assert seeded["newton.sample_iterations"] \
            < cold["newton.sample_iterations"]
        np.testing.assert_array_equal(seeded_signs, cold_signs)
