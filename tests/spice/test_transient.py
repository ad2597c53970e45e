"""Tests for the transient engine."""

import numpy as np
import pytest

from repro.models import NMOS_45HP, PMOS_45HP
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.transient import run_transient
from repro.spice.waveforms import Dc, Pwl, Step


def rc_circuit(tau_s: float = 1e-9) -> Circuit:
    c = Circuit("rc")
    c.add_vsource("vin", "in", Step(1.0, 0.0, t_step=0.0, t_rise=0.0))
    c.add_resistor("r", "in", "out", 1e3)
    c.add_capacitor("c", "out", "0", tau_s / 1e3)
    return c


class TestRcAccuracy:
    def test_discharge_matches_analytic(self):
        system = MnaSystem(rc_circuit(), 300.0)
        result = run_transient(system, 5e-9, 5e-12, probes=["out"],
                               initial={"out": 1.0})
        expected = np.exp(-result.times / 1e-9)
        np.testing.assert_allclose(result.probe("out")[:, 0], expected,
                                   atol=5e-3)

    def test_step_count(self):
        system = MnaSystem(rc_circuit(), 300.0)
        result = run_transient(system, 1e-9, 1e-10, probes=["out"],
                               initial={"out": 1.0})
        assert len(result.times) == 11
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(1e-9)


class TestValidation:
    def test_bad_dt(self):
        system = MnaSystem(rc_circuit(), 300.0)
        with pytest.raises(ValueError):
            run_transient(system, 1e-9, 0.0, probes=["out"])

    def test_bad_window(self):
        system = MnaSystem(rc_circuit(), 300.0)
        with pytest.raises(ValueError):
            run_transient(system, 0.0, 1e-12, probes=["out"])

    def test_unknown_probe(self):
        system = MnaSystem(rc_circuit(), 300.0)
        result = run_transient(system, 1e-10, 1e-12, probes=["out"])
        with pytest.raises(KeyError, match="not probed"):
            result.probe("nope")


class TestFeatures:
    def test_probe_shapes(self):
        system = MnaSystem(rc_circuit(), 300.0, batch_size=3)
        result = run_transient(system, 1e-9, 1e-10, probes=["out", "in"])
        assert result.probe("out").shape == (11, 3)

    def test_differential(self):
        system = MnaSystem(rc_circuit(), 300.0)
        result = run_transient(system, 1e-10, 1e-12, probes=["in", "out"],
                               initial={"out": 1.0})
        np.testing.assert_allclose(
            result.differential("in", "out"),
            result.probe("in") - result.probe("out"))

    def test_initial_state_reuse(self):
        """A transient can continue from another's final state."""
        system = MnaSystem(rc_circuit(), 300.0)
        first = run_transient(system, 1e-9, 1e-11, probes=["out"],
                              initial={"out": 1.0})
        second = run_transient(system, 2e-9, 1e-11, probes=["out"],
                               t_start=1e-9, initial_state=first.final)
        straight = run_transient(system, 2e-9, 1e-11, probes=["out"],
                                 initial={"out": 1.0})
        assert second.probe("out")[-1, 0] == pytest.approx(
            straight.probe("out")[-1, 0], rel=1e-3)

    def test_pwl_source_tracked(self):
        c = Circuit()
        c.add_vsource("v", "in", Pwl([0.0, 1e-9, 2e-9], [0.0, 1.0, 0.0]))
        c.add_resistor("r", "in", "out", 10.0)
        c.add_capacitor("cap", "out", "0", 1e-15)  # tau = 10 fs << dt
        system = MnaSystem(c, 300.0)
        result = run_transient(system, 2e-9, 1e-10, probes=["out"])
        peak_index = int(np.argmax(result.probe("out")[:, 0]))
        assert result.times[peak_index] == pytest.approx(1e-9, abs=1.5e-10)

    def test_newton_iterations_reported(self):
        system = MnaSystem(rc_circuit(), 300.0)
        result = run_transient(system, 1e-10, 1e-12, probes=["out"])
        assert result.newton_iterations >= len(result.times) - 1


class TestNonlinearTransient:
    def test_inverter_switching(self):
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", Dc(1.0))
        c.add_vsource("vin", "in", Step(0.0, 1.0, t_step=10e-12,
                                        t_rise=5e-12))
        c.add_mosfet("mp", "out", "in", "vdd", "vdd", PMOS_45HP, 5.0)
        c.add_mosfet("mn", "out", "in", "0", "0", NMOS_45HP, 2.5)
        c.add_capacitor("cl", "out", "0", 2e-15)
        system = MnaSystem(c, 298.15)
        result = run_transient(system, 60e-12, 0.5e-12, probes=["out"],
                               initial={"out": 1.0})
        out = result.probe("out")[:, 0]
        assert out[0] > 0.95
        assert out[-1] < 0.05
