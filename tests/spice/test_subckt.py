"""Tests for hierarchical subcircuits and the SA column array."""

import dataclasses

import numpy as np
import pytest

from repro.circuits.column_array import (build_sa_column_array,
                                         issa_column_template)
from repro.circuits.sense_amp import ReadTiming, read_operation
from repro.models import Environment, NMOS_45HP
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.solver import newton_solve
from repro.spice.subckt import SubCircuit, instantiate
from repro.spice.transient import run_transient
from repro.spice.waveforms import Dc, Step
from repro.spice.measure import final_sign


def divider_template() -> SubCircuit:
    sub = SubCircuit("div", ["top", "mid"])
    sub.circuit.add_resistor("r1", "top", "mid", 1e3)
    sub.circuit.add_resistor("r2", "mid", "0", 1e3)
    return sub


class TestSubCircuit:
    def test_instantiation_prefixes_names(self):
        parent = Circuit("p")
        parent.add_vsource("v", "in", Dc(2.0))
        mapping = instantiate(parent, divider_template(), "a",
                              {"top": "in", "mid": "node_a"})
        assert mapping["top"] == "in"
        assert {r.name for r in parent.resistors} == {"Xa.r1", "Xa.r2"}

    def test_two_instances_independent(self):
        parent = Circuit("p")
        parent.add_vsource("v", "in", Dc(2.0))
        instantiate(parent, divider_template(), "a",
                    {"top": "in", "mid": "ma"})
        instantiate(parent, divider_template(), "b",
                    {"top": "in", "mid": "mb"})
        assert parent.stats()["resistors"] == 4
        # Both dividers solve to 1 V independently.
        system = MnaSystem(parent, 300.0)
        v, _ = newton_solve(
            lambda vv: system.static_residual_jacobian(vv, 0.0),
            system.initial_full_vector(0.0), system.unknown_idx)
        for node in ("ma", "mb"):
            assert v[0, system.node_index[node]] == pytest.approx(
                1.0, rel=1e-3)

    def test_ground_stays_global(self):
        parent = Circuit("p")
        parent.add_vsource("v", "in", Dc(1.0))
        instantiate(parent, divider_template(), "a",
                    {"top": "in", "mid": "m"})
        # r2 still references the global ground.
        r2 = next(r for r in parent.resistors if r.name == "Xa.r2")
        assert r2.node_b == "0"

    def test_unconnected_port_rejected(self):
        parent = Circuit("p")
        with pytest.raises(ValueError, match="unconnected"):
            instantiate(parent, divider_template(), "a", {"top": "in"})

    def test_undeclared_port_rejected(self):
        parent = Circuit("p")
        with pytest.raises(ValueError, match="undeclared"):
            instantiate(parent, divider_template(), "a",
                        {"top": "in", "mid": "m", "zz": "q"})

    def test_unused_port_rejected(self):
        sub = SubCircuit("bad", ["a", "b"])
        sub.circuit.add_resistor("r", "a", "0", 1e3)
        parent = Circuit("p")
        with pytest.raises(ValueError, match="never uses"):
            instantiate(parent, sub, "x", {"a": "n1", "b": "n2"})

    def test_sources_forbidden_inside(self):
        sub = SubCircuit("bad", ["a"])
        sub.circuit.add_vsource("v", "a", Dc(1.0))
        with pytest.raises(ValueError, match="voltage sources"):
            sub.validate()

    def test_port_validation(self):
        with pytest.raises(ValueError):
            SubCircuit("s", [])
        with pytest.raises(ValueError):
            SubCircuit("s", ["a", "a"])
        with pytest.raises(ValueError):
            SubCircuit("s", ["gnd"])


class TestColumnArray:
    def test_template_valid(self):
        issa_column_template().validate()

    def test_array_structure(self):
        array = build_sa_column_array(4)
        stats = array.circuit.stats()
        assert stats["mosfets"] == 4 * 14
        assert stats["vsources"] == 5 + 2 * 4

    def test_column_count_validation(self):
        with pytest.raises(ValueError):
            build_sa_column_array(0)

    def test_columns_resolve_independently(self):
        """Two columns with opposite inputs resolve oppositely while
        sharing the same enable rails."""
        array = build_sa_column_array(2)
        circuit = array.circuit
        timing = ReadTiming(dt=1e-12)
        # Program the shared rails and per-column bitlines.
        by_node = {v.node: i for i, v in enumerate(circuit.vsources)}

        def set_wave(node, wave):
            circuit.vsources[by_node[node]] = dataclasses.replace(
                circuit.vsources[by_node[node]], waveform=wave)

        vdd = 1.0
        enable = Step(0.0, vdd, timing.t_develop, timing.t_rise)
        set_wave("saen", enable)
        set_wave("saenbar", Step(vdd, 0.0, timing.t_develop,
                                 timing.t_rise))
        set_wave("saena", enable)   # straight pair selected
        set_wave("saenb", Dc(vdd))  # swapped pair off
        common = vdd - 0.1
        set_wave("bl0", Dc(common + 0.05))
        set_wave("blbar0", Dc(common - 0.05))
        set_wave("bl1", Dc(common - 0.05))
        set_wave("blbar1", Dc(common + 0.05))

        system = MnaSystem(circuit, 298.15)
        initial = {}
        for col in range(2):
            initial[array.column_node(col, "s")] = common
            initial[array.column_node(col, "sbar")] = common
            initial[array.column_node(col, "top")] = vdd
        probes = [array.column_node(0, "s"), array.column_node(0, "sbar"),
                  array.column_node(1, "s"), array.column_node(1, "sbar")]
        result = run_transient(system, 80e-12, timing.dt, probes=probes,
                               initial=initial)
        sign0 = final_sign(result.probe(probes[0])
                           - result.probe(probes[1]))
        sign1 = final_sign(result.probe(probes[2])
                           - result.probe(probes[3]))
        assert sign0[0] == 1.0
        assert sign1[0] == -1.0

    def test_per_column_device_shifts(self):
        """Instance-prefixed devices accept independent Vth shifts."""
        array = build_sa_column_array(2)
        system = MnaSystem(array.circuit, 298.15, batch_size=3)
        system.set_vth_shift(array.column_device(0, "Mdown"),
                             np.array([0.0, 0.01, 0.02]))
        with pytest.raises(KeyError):
            system.set_vth_shift("Mdown", 0.01)  # unprefixed name
