"""Opt-out matrix: every switch combination reproduces Table II.

The simulator stacks four independently-toggleable layers — the
stacked device fast path (``REPRO_NO_FASTPATH``), warm-started reads
(``REPRO_NO_WARMSTART``), the reduced unknown-block hot loop
(``REPRO_NO_REDUCED``) and the compiled solver backend (replaced by
the reference one with ``REPRO_BACKEND=numpy``).  Each layer's parity is pinned by its own
suite; this one sweeps all 16 combinations on real table cells and
asserts the offset populations and spec values are **bit-identical**
to the all-layers-on baseline, so no pairwise interaction can ever
change a published number.
"""

import itertools

import numpy as np
import pytest

from repro.circuits.sense_amp import ReadTiming
from repro.core.calibration import default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.models import Environment
from repro.workloads import paper_workload

#: The four opt-out switches, one axis each: variable -> opt-out value.
SWITCHES = {"REPRO_NO_FASTPATH": "1", "REPRO_NO_WARMSTART": "1",
            "REPRO_NO_REDUCED": "1", "REPRO_BACKEND": "numpy"}

TIMING = ReadTiming(dt=1e-12)


def cells():
    return [ExperimentCell("nssa", paper_workload("80r0"), 1e8,
                           Environment.from_celsius(25.0, 1.0)),
            ExperimentCell("issa", None, 0.0,
                           Environment.from_celsius(25.0, 1.0))]


def characterise(cell):
    return run_cell(cell, settings=default_mc_settings(size=4, seed=2017),
                    timing=TIMING, offset_iterations=4,
                    measure_delay=False)


class TestOptOutMatrix:
    @pytest.mark.parametrize("cell", cells(),
                             ids=lambda c: f"{c.scheme}-{c.workload_label}")
    def test_all_combinations_bit_identical(self, monkeypatch, cell):
        for name in SWITCHES:
            monkeypatch.delenv(name, raising=False)
        baseline = characterise(cell)
        for combo in itertools.product((False, True), repeat=len(SWITCHES)):
            if not any(combo):
                continue  # the baseline itself
            label = "+".join(name for name, on in zip(SWITCHES, combo)
                             if on) or "none"
            for (name, value), on in zip(SWITCHES.items(), combo):
                if on:
                    monkeypatch.setenv(name, value)
                else:
                    monkeypatch.delenv(name, raising=False)
            result = characterise(cell)
            np.testing.assert_array_equal(
                result.offset.offsets, baseline.offset.offsets,
                err_msg=f"offsets deviate under {label}")
            assert result.offset.spec == baseline.offset.spec, \
                f"spec deviates under {label}"
            assert result.offset.mu == baseline.offset.mu, \
                f"fit mu deviates under {label}"

    def test_fastpath_opt_out_keeps_delays(self, monkeypatch):
        """The per-device loop reproduces the stacked path's delays."""
        for name in SWITCHES:
            monkeypatch.delenv(name, raising=False)
        cell = cells()[0]
        kwargs = dict(settings=default_mc_settings(size=4, seed=2017),
                      timing=TIMING, offset_iterations=4)
        stacked = run_cell(cell, **kwargs)
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        legacy = run_cell(cell, **kwargs)
        np.testing.assert_array_equal(legacy.offset.offsets,
                                      stacked.offset.offsets)
        assert abs(legacy.delay_s - stacked.delay_s) < 1e-18

    def test_switches_are_read_per_call(self, monkeypatch):
        """The opt-outs take effect without restarting the process."""
        from repro.analysis.perf import PERF
        cell = cells()[0]
        for name in SWITCHES:
            monkeypatch.delenv(name, raising=False)
        PERF.reset()
        characterise(cell)
        on = PERF.snapshot()["counters"]
        assert on.get("spice.backend.fused_steps", 0) > 0
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        PERF.reset()
        characterise(cell)
        off = PERF.snapshot()["counters"]
        assert "spice.backend.fused_steps" not in off
