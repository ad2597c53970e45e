"""Tests for the NSSA/ISSA netlists and read-operation harness."""

import numpy as np
import pytest

from repro.circuits.sense_amp import (ReadTiming, apply_waveforms,
                                      build_issa, build_nssa,
                                      latch_initial_conditions,
                                      read_operation)
from repro.spice.waveforms import Dc


class TestNetlists:
    def test_nssa_structure(self):
        design = build_nssa()
        stats = design.circuit.stats()
        assert stats["mosfets"] == 12  # Fig. 1 core + inverters
        assert stats["vsources"] == 5
        assert not design.is_switching

    def test_issa_has_extra_pass_pair(self):
        nssa = build_nssa()
        issa = build_issa()
        assert (issa.circuit.stats()["mosfets"]
                == nssa.circuit.stats()["mosfets"] + 2)
        assert issa.is_switching

    def test_issa_enable_nodes(self):
        assert set(build_issa().enable_nodes) == {
            "saen", "saenbar", "saena", "saenb"}

    def test_device_name_sets(self):
        nssa = build_nssa()
        assert set(nssa.latch_device_names()) <= set(
            nssa.circuit.mosfet_ratios())
        issa = build_issa()
        assert set(issa.pass_device_names()) == {"M1", "M2", "M3", "M4"}

    def test_figure1_sizes(self):
        ratios = build_nssa().circuit.mosfet_ratios()
        assert ratios["Mdown"] == 17.8
        assert ratios["Mup"] == 5.0
        assert ratios["Mtop"] == 15.5
        assert ratios["Mbottom"] == 10.0

    def test_initial_conditions(self):
        ics = latch_initial_conditions(1.0)
        assert ics["s"] == pytest.approx(0.9)
        assert ics["top"] == 1.0


class TestReadTiming:
    def test_defaults_valid(self):
        timing = ReadTiming()
        assert timing.t_enable_mid == pytest.approx(
            timing.t_develop + 0.5 * timing.t_rise)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadTiming(dt=0.0)
        with pytest.raises(ValueError):
            ReadTiming(t_develop=100e-12, t_window=90e-12)
        with pytest.raises(ValueError):
            ReadTiming(dt=float("nan"))

    def test_step_must_resolve_the_enable_rise(self):
        """Two steps across the 5 ps rise: 2.5 ps runs, 3 ps does not."""
        assert ReadTiming(dt=2.5e-12).dt == 2.5e-12
        with pytest.raises(ValueError, match="enable rise"):
            ReadTiming(dt=3e-12)
        # The rule follows the rise time, not a fixed step.
        assert ReadTiming(t_rise=10e-12, dt=5e-12).dt == 5e-12


class TestReadOperation:
    def test_differential_applied(self):
        design = build_nssa()
        waves = read_operation(design, 0.05, vdd=1.0)
        assert (waves["bl"].value(0.0)
                - waves["blbar"].value(0.0)) == pytest.approx(0.05)

    def test_batched_differential(self):
        design = build_nssa()
        vin = np.array([0.01, -0.01])
        waves = read_operation(design, vin, vdd=1.0)
        diff = waves["bl"].value(0.0) - waves["blbar"].value(0.0)
        np.testing.assert_allclose(diff, vin)

    def test_enable_phases(self):
        design = build_nssa()
        timing = ReadTiming()
        waves = read_operation(design, 0.0, 1.0, timing)
        assert waves["saen"].value(0.0) == 0.0
        assert waves["saen"].value(timing.t_window) == 1.0
        assert waves["saenbar"].value(timing.t_window) == 0.0

    def test_issa_pass_selection(self):
        design = build_issa()
        timing = ReadTiming()
        straight = read_operation(design, 0.0, 1.0, timing, swapped=False)
        # Selected pair enable follows SAenable; other pair held off
        # (high) per Table I.
        assert straight["saenb"].value(timing.t_window) == 1.0
        assert straight["saena"].value(timing.t_window) == 1.0
        assert straight["saena"].value(0.0) == 0.0
        swapped = read_operation(design, 0.0, 1.0, timing, swapped=True)
        assert swapped["saena"].value(0.0) == 1.0
        assert swapped["saenb"].value(0.0) == 0.0

    def test_nssa_rejects_swapped(self):
        with pytest.raises(ValueError):
            read_operation(build_nssa(), 0.0, swapped=True)

    def test_apply_waveforms_replaces_sources(self):
        design = build_nssa()
        apply_waveforms(design, {"bl": Dc(0.123)})
        source = next(v for v in design.circuit.vsources
                      if v.node == "bl")
        assert source.waveform.value(0.0) == 0.123

    def test_apply_waveforms_unknown_node(self):
        with pytest.raises(KeyError):
            apply_waveforms(build_nssa(), {"nope": Dc(0.0)})


class TestElectricalBehaviour:
    def test_resolution_signs(self, nssa_bench):
        vin = np.array([0.05, -0.05, 0.01, -0.01, 0.2, -0.2, 0.003,
                        -0.003])
        signs = nssa_bench.resolve_sign(vin)
        np.testing.assert_array_equal(signs, np.sign(vin))

    def test_issa_straight_matches_nssa_polarity(self, issa_bench):
        vin = np.array([0.05, -0.05] * 4)
        np.testing.assert_array_equal(issa_bench.resolve_sign(vin),
                                      np.sign(vin))

    def test_issa_swapped_inverts(self, issa_bench):
        """Swapped reads resolve the complement (paper Sec. III-A)."""
        vin = np.array([0.05, -0.05] * 4)
        np.testing.assert_array_equal(
            issa_bench.resolve_sign(vin, swapped=True), -np.sign(vin))

    def test_issa_delay_overhead_small(self, nssa_bench, issa_bench):
        """ISSA adds pass-gate loading: slower, but only slightly."""
        vin = np.full(8, -0.2)
        nssa = float(np.mean(nssa_bench.sensing_delay(vin)))
        issa = float(np.mean(issa_bench.sensing_delay(vin)))
        assert nssa < issa < 1.1 * nssa

    def test_injected_skew_shifts_offset(self, nssa_bench):
        """A deliberate Mdown/MdownBar skew moves the offset ~1:1."""
        from repro.core.offset import extract_offsets
        skew = np.array([0.0, 0.01, 0.02, 0.03, -0.01, -0.02, -0.03,
                         0.0])
        nssa_bench.set_vth_shifts({"Mdown": skew})
        offsets = extract_offsets(nssa_bench, iterations=16)
        gains = np.diff(offsets[:4]) / 0.01
        assert np.all(gains > 0.8) and np.all(gains < 1.4)
