"""Tests for the warm-start ladder (state reuse, trajectory seeding,
extrapolation) and its ``REPRO_NO_WARMSTART`` opt-out."""

import numpy as np
import pytest

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core.calibration import default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.core.testbench import (WARMSTART_ENV, WarmStartOptions,
                                  warmstart_default)
from repro.models import Environment
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)


def aged_cell():
    return ExperimentCell("nssa", paper_workload("80r0"), 1e8,
                          Environment.from_celsius(25.0, 1.0))


def run(monkeypatch, disable, size=8, iterations=6):
    if disable:
        monkeypatch.setenv(WARMSTART_ENV, "1")
    else:
        monkeypatch.delenv(WARMSTART_ENV, raising=False)
    PERF.reset()
    result = run_cell(aged_cell(),
                      settings=default_mc_settings(size=size, seed=2017),
                      timing=TIMING, offset_iterations=iterations)
    return result, PERF.snapshot()["counters"]


class TestEnvToggle:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv(WARMSTART_ENV, raising=False)
        assert warmstart_default()
        assert WarmStartOptions.from_env() == WarmStartOptions()

    def test_opt_out(self, monkeypatch):
        monkeypatch.setenv(WARMSTART_ENV, "1")
        assert not warmstart_default()
        assert WarmStartOptions.from_env() == WarmStartOptions.disabled()

    def test_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv(WARMSTART_ENV, "0")
        assert warmstart_default()

    def test_disabled_turns_everything_off(self):
        ws = WarmStartOptions.disabled()
        assert not (ws.state_reuse or ws.trajectory or ws.extrapolate)


class TestSpecEquivalence:
    def test_offsets_and_spec_match_opt_out(self, monkeypatch):
        """Warm starts must not move the reported distribution.

        Bisection quantises offsets onto a fixed grid and warm starts
        only move Newton's *starting point* under a 10x tightened
        ``vtol``, so the populations come out bit-identical; delays
        carry only tolerance-level residue.
        """
        warm, _ = run(monkeypatch, disable=False)
        cold, _ = run(monkeypatch, disable=True)
        np.testing.assert_array_equal(warm.offset.offsets,
                                      cold.offset.offsets)
        assert warm.offset.spec == cold.offset.spec
        assert warm.delay_s == pytest.approx(cold.delay_s, abs=1e-15)

    def test_repeat_run_bit_identical(self, monkeypatch):
        first, _ = run(monkeypatch, disable=False)
        second, _ = run(monkeypatch, disable=False)
        np.testing.assert_array_equal(first.offset.offsets,
                                      second.offset.offsets)
        assert first.delay_s == second.delay_s


class TestIterationSavings:
    def test_warm_starts_reduce_newton_work(self, monkeypatch):
        _, warm = run(monkeypatch, disable=False)
        _, cold = run(monkeypatch, disable=True)
        assert warm["transient.warm_seeds"] > 0
        assert warm["newton.sample_iterations"] \
            < cold["newton.sample_iterations"]
        assert warm["newton.iterations"] < cold["newton.iterations"]
        # Same reads either way: seeding changes guesses, not the sweep.
        assert warm["newton.solves"] == cold["newton.solves"]

    def test_opt_out_has_no_seed_counters(self, monkeypatch):
        _, cold = run(monkeypatch, disable=True)
        assert "transient.warm_seeds" not in cold

