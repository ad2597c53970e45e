"""Property-based tests on the simulator's structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import NMOS_45HP, PMOS_45HP
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.solver import newton_solve
from repro.spice.waveforms import Dc


def random_resistive_network(rng: np.random.Generator, n_nodes: int,
                             n_resistors: int) -> Circuit:
    """A connected random resistor network driven by one source."""
    circuit = Circuit("random")
    circuit.add_vsource("v", "n0", Dc(1.0))
    names = [f"n{k}" for k in range(n_nodes)]
    # Spanning chain guarantees connectivity to the source and ground.
    for k in range(n_nodes - 1):
        circuit.add_resistor(f"chain{k}", names[k], names[k + 1],
                             float(rng.uniform(100.0, 10e3)))
    circuit.add_resistor("tognd", names[-1], "0",
                         float(rng.uniform(100.0, 10e3)))
    for k in range(n_resistors):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        circuit.add_resistor(f"extra{k}", names[a], names[b],
                             float(rng.uniform(100.0, 10e3)))
    return circuit


def static_solve(system: MnaSystem) -> np.ndarray:
    """Newton solve of the DC equations (capacitors open) at t = 0."""
    def res_jac(v):
        system.apply_known(v, 0.0)
        return system.static_residual_jacobian(v, 0.0)

    v, _ = newton_solve(res_jac, system.initial_full_vector(0.0),
                        system.unknown_idx)
    return v


class TestGlobalKcl:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_nodes=st.integers(min_value=3, max_value=8),
           n_extra=st.integers(min_value=0, max_value=6))
    def test_residual_sums_to_zero(self, seed, n_nodes, n_extra):
        """Sum of currents leaving all nodes (incl. ground) vanishes:
        every element stamp is charge-conserving."""
        rng = np.random.default_rng(seed)
        circuit = random_resistive_network(rng, n_nodes, n_extra)
        system = MnaSystem(circuit, 300.0, gmin=0.0)
        v = system.initial_full_vector(0.0)
        v[0, system.unknown_idx] = rng.uniform(-1.0, 2.0,
                                               len(system.unknown_idx))
        f, _ = system.static_residual_jacobian(v, 0.0)
        assert float(np.sum(f)) == pytest.approx(0.0, abs=1e-12)

    def test_mosfet_stamp_conserves_charge(self):
        circuit = Circuit("m")
        circuit.add_vsource("vdd", "vdd", Dc(1.0))
        circuit.add_mosfet("mn", "d", "g", "s", "0", NMOS_45HP, 5.0)
        circuit.add_resistor("r1", "vdd", "d", 1e3)
        circuit.add_resistor("r2", "vdd", "g", 1e3)
        circuit.add_resistor("r3", "s", "0", 1e3)
        system = MnaSystem(circuit, 300.0, gmin=0.0)
        v = system.initial_full_vector(0.0, {"d": 0.8, "g": 0.9,
                                             "s": 0.1})
        f, _ = system.static_residual_jacobian(v, 0.0)
        assert float(np.sum(f)) == pytest.approx(0.0, abs=1e-15)


class TestAgainstDirectSolve:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_linear_network_matches_linear_algebra(self, seed):
        """Newton on a linear network equals the direct G^-1 b solve."""
        rng = np.random.default_rng(seed)
        circuit = random_resistive_network(rng, 5, 4)
        system = MnaSystem(circuit, 300.0)
        v = static_solve(system)

        u = system.unknown_idx
        g = system.g_static
        g_uu = g[np.ix_(u, u)]
        known = system.node_index["n0"]
        rhs = -g[u, known] * 1.0
        direct = np.linalg.solve(g_uu, rhs)
        np.testing.assert_allclose(v[0, u], direct, rtol=1e-6,
                                   atol=1e-9)

    def test_superposition(self):
        """Linear network: response to 2 V is twice the response to 1 V."""
        rng = np.random.default_rng(7)
        circuit = random_resistive_network(rng, 6, 5)
        system = MnaSystem(circuit, 300.0)
        v1 = static_solve(system)
        import dataclasses
        circuit.vsources[0] = dataclasses.replace(circuit.vsources[0],
                                                  waveform=Dc(2.0))
        v2 = static_solve(system)
        u = system.unknown_idx
        np.testing.assert_allclose(v2[0, u], 2.0 * v1[0, u], rtol=1e-5)


class TestDeterminism:
    def test_offset_extraction_is_deterministic(self, nssa_bench):
        from repro.core.offset import extract_offsets
        rng = np.random.default_rng(2)
        shifts = {"Mdown": rng.normal(0, 0.01, 8)}
        nssa_bench.set_vth_shifts(shifts)
        first = extract_offsets(nssa_bench, iterations=10)
        second = extract_offsets(nssa_bench, iterations=10)
        np.testing.assert_array_equal(first, second)
