"""Tests for the reduced (unknown-block) compilation of the hot loop.

Covers the compile-time gather maps in :class:`MnaSystem`, the
bit-identity contract between :meth:`reduced_residual_jacobian` and the
sliced full-space assembly (including on randomised topologies), the
vectorised waveform tables feeding the transient engine, the in-place
stacked device evaluator, and the batched-solve fixes (genuine 2-D
calls, direct-gufunc parity).
"""

import numpy as np
import pytest

from repro.circuits.sense_amp import build_issa, build_nssa
from repro.models import NMOS_45HP, PMOS_45HP
from repro.models.mosmodel import (stacked_eval_workspace,
                                   stacked_mos_current,
                                   stacked_mos_current_into)
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.solver import (NewtonOptions, _solve_batched,
                                _solve_batched_fast)
from repro.spice.transient import _build_known_table
from repro.circuits.sense_amp import ReadTiming
from repro.spice.waveforms import Dc, Pulse, Pwl, Step


def inverter_chain(n_stages: int = 2) -> Circuit:
    """A chain of CMOS inverters with a switching input."""
    c = Circuit(f"inv{n_stages}")
    c.add_vsource("vdd", "vdd", Dc(1.0))
    c.add_vsource("vin", "n0", Step(0.9, 0.1, t_step=2e-11, t_rise=5e-12))
    for k in range(n_stages):
        a, b = f"n{k}", f"n{k + 1}"
        c.add_mosfet(f"mp{k}", b, a, "vdd", "vdd", PMOS_45HP, w_over_l=4.0)
        c.add_mosfet(f"mn{k}", b, a, "0", "0", NMOS_45HP, w_over_l=2.0)
        c.add_capacitor(f"c{k}", b, "0", 2e-16)
    c.add_resistor("rload", f"n{n_stages}", "0", 1e6)
    return c


def random_circuit(rng: np.random.Generator) -> Circuit:
    """A randomised mixed topology: mosfets, resistors, caps, sources."""
    c = Circuit("rand")
    c.add_vsource("vdd", "vdd", Dc(1.0))
    c.add_vsource("vin", "in", Dc(float(rng.uniform(0.2, 0.8))))
    nodes = ["in", "vdd", "a", "b", "c", "d"]
    for k in range(int(rng.integers(3, 7))):
        d, g, s = rng.choice(nodes[2:], size=3, replace=True)
        model = NMOS_45HP if rng.random() < 0.5 else PMOS_45HP
        bulk = "0" if model is NMOS_45HP else "vdd"
        c.add_mosfet(f"m{k}", d, g if k else "in", s, bulk, model,
                     w_over_l=float(rng.uniform(1.0, 6.0)))
    for k in range(int(rng.integers(2, 5))):
        a, b = rng.choice(nodes, size=2, replace=False)
        c.add_resistor(f"r{k}", a, b, float(rng.uniform(1e3, 1e6)))
    for node in ("a", "b", "c", "d"):
        c.add_resistor(f"rg_{node}", node, "0", 1e7)
        c.add_capacitor(f"cg_{node}", node, "0", 1e-16)
    return c


def random_state(system: MnaSystem, rng: np.random.Generator,
                 batch: int) -> np.ndarray:
    v = rng.uniform(-0.2, 1.2, (batch, system.n_nodes))
    system.apply_known(v, 0.0)
    return v


class TestWaveformTables:
    """``values()`` must be element-for-element the scalar ``value()``."""

    TIMES = np.linspace(0.0, 1.2e-10, 37)

    def waveforms(self):
        yield Dc(0.7)
        yield Dc(np.array([0.1, 0.5, 0.9]))
        yield Step(0.9, 0.1, t_step=3e-11, t_rise=5e-12)
        yield Step(0.9, 0.1, t_step=3e-11, t_rise=0.0)
        yield Step(np.array([0.8, 0.9]), np.array([0.0, 0.2]),
                   t_step=2e-11, t_rise=7e-12)
        yield Pulse(0.0, 1.0, delay=1e-11, t_rise=4e-12, t_fall=6e-12,
                    width=2e-11, period=6e-11)
        yield Pwl((0.0, 2e-11, 5e-11, 9e-11), (0.0, 1.0, 0.3, 0.3))
        yield Pwl((0.0, 3e-11, 8e-11),
                  (np.array([0.0, 0.1]), np.array([1.0, 0.9]),
                   np.array([0.3, 0.2])))

    def test_bitwise_matches_scalar_api(self):
        for waveform in self.waveforms():
            table = waveform.values(self.TIMES)
            for step, t in enumerate(self.TIMES):
                expected = np.asarray(waveform.value(float(t)), dtype=float)
                got = table[step]
                assert np.shape(got) == np.broadcast_shapes(
                    expected.shape, np.shape(got))
                np.testing.assert_array_equal(
                    np.broadcast_to(expected, np.shape(got)), got,
                    err_msg=f"{waveform!r} at t={t:g}")

    def test_paper_read_waveforms(self):
        design = build_nssa()
        sources = design.read_waveforms(0.02, 1.0, ReadTiming(dt=1e-12))
        for name, waveform in sources.items():
            table = waveform.values(self.TIMES)
            for step, t in enumerate(self.TIMES):
                np.testing.assert_array_equal(
                    np.broadcast_to(np.asarray(waveform.value(float(t))),
                                    np.shape(table[step])),
                    table[step], err_msg=name)


class TestKnownTable:
    def test_matches_apply_known(self):
        for design in (build_nssa(), build_issa()):
            system = MnaSystem(design.circuit, 298.15, batch_size=4)
            times = np.linspace(0.0, 1.1e-10, 23)
            table = _build_known_table(system, times)
            v = np.zeros((4, system.n_nodes))
            for step, t in enumerate(times):
                ref = v.copy()
                system.apply_known(ref, float(t))
                np.testing.assert_array_equal(
                    np.broadcast_to(table[step], ref[:, system.known_idx]
                                    .shape),
                    ref[:, system.known_idx])


class TestReducedAssembly:
    """Gathered unknown-block assembly == sliced full-space assembly."""

    def _parity(self, circuit: Circuit, seed: int, batch: int = 6):
        rng = np.random.default_rng(seed)
        system = MnaSystem(circuit, 300.0, batch_size=batch)
        shifts = {name: rng.normal(0.0, 0.03, batch)
                  for name in list(system.vth_shifts())[::2]}
        if shifts:
            system.set_vth_shifts(shifts)
        u = system.unknown_idx
        for trial in range(3):
            v = random_state(system, rng, batch)
            if trial == 2:
                active = np.sort(rng.choice(batch, size=batch - 2,
                                            replace=False))
                rows = v[active]
            else:
                active, rows = None, v
            f, jac = system.static_residual_jacobian(rows, 1e-11,
                                                     active=active)
            f_u, jac_uu = system.reduced_residual_jacobian(rows, 1e-11,
                                                           active=active)
            np.testing.assert_array_equal(f[:, u], f_u)
            np.testing.assert_array_equal(jac[:, u[:, None], u[None, :]],
                                          jac_uu)

    def test_sense_amps(self):
        self._parity(build_nssa().circuit, seed=11)
        self._parity(build_issa().circuit, seed=12)

    def test_randomised_topologies(self):
        for seed in range(8):
            rng = np.random.default_rng(1000 + seed)
            self._parity(random_circuit(rng), seed=seed)

    def test_workspace_views_are_reused(self):
        system = MnaSystem(inverter_chain(), 300.0, batch_size=5)
        rng = np.random.default_rng(0)
        v = random_state(system, rng, 5)
        f1, _ = system.reduced_residual_jacobian(v, 0.0)
        base1 = f1.base if f1.base is not None else f1
        f2, _ = system.reduced_residual_jacobian(v, 0.0)
        base2 = f2.base if f2.base is not None else f2
        assert base1 is base2


class TestStackedInto:
    """In-place evaluator == allocating evaluator, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 5, 48])
    def test_bitwise(self, batch):
        system = MnaSystem(build_nssa().circuit, 298.15, batch_size=batch)
        devices = system._devices
        rng = np.random.default_rng(batch)
        system.set_vth_shifts({name: rng.normal(0.0, 0.05, batch)
                               for name in system.vth_shifts()})
        shifts = system._vth_shift_matrix()
        v = random_state(system, rng, batch)
        v[0, system.unknown_idx[0]] = -0.0   # signed-zero edge
        if batch > 1:
            v[1, system.unknown_idx[0]] = 60.0   # deep-overdrive edge
        vg = v[:, system._dev_gate]
        vd = v[:, system._dev_drain]
        vs = v[:, system._dev_source]
        vb = v[:, system._dev_bulk]
        i_ref, gm, gd, gs = stacked_mos_current(vg, vd, vs, vb, shifts,
                                                devices)
        terminals = v.take(system._dev_all, axis=1)
        vth = np.ascontiguousarray((devices.vth + shifts).T)
        work = stacked_eval_workspace(batch, devices)
        i_d = np.empty_like(i_ref)
        stamps = np.empty((batch, 3 * len(devices.vth)))
        stacked_mos_current_into(terminals, vth, devices, work, i_d,
                                 stamps)
        n_dev = len(devices.vth)
        np.testing.assert_array_equal(i_ref, i_d)
        np.testing.assert_array_equal(gm, stamps[:, :n_dev])
        np.testing.assert_array_equal(gd, stamps[:, n_dev:2 * n_dev])
        np.testing.assert_array_equal(gs, stamps[:, 2 * n_dev:])


class TestSolveBatched:
    def _spd(self, rng, batch, n):
        a = rng.standard_normal((batch, n, n))
        return a + n * np.eye(n)

    def test_two_dimensional_call(self):
        """A genuine single-system (n, n) call — previously unreachable."""
        rng = np.random.default_rng(7)
        a = self._spd(rng, 1, 6)[0]
        b = rng.standard_normal(6)
        x = _solve_batched(a, b, NewtonOptions().regularisation)
        assert x.shape == (6,)
        np.testing.assert_array_equal(np.linalg.solve(a, b), x)

    def test_two_dimensional_singular_regularised(self):
        a = np.zeros((4, 4))
        b = np.ones(4)
        x = _solve_batched(a, b, 1e-12)
        assert x.shape == (4,)
        assert np.all(np.isfinite(x))

    def test_fast_path_bitwise(self):
        rng = np.random.default_rng(9)
        a = self._spd(rng, 48, 6)
        b = rng.standard_normal((48, 6))
        slow = _solve_batched(a, b, 1e-12)
        fast = _solve_batched_fast(a, b, 1e-12)
        np.testing.assert_array_equal(slow, fast)

    def test_fast_path_singular_member(self):
        rng = np.random.default_rng(10)
        a = self._spd(rng, 8, 5)
        a[3] = 0.0
        b = rng.standard_normal((8, 5))
        fast = _solve_batched_fast(a, b, 1e-9)
        slow = _solve_batched(a, b, 1e-9)
        np.testing.assert_array_equal(slow, fast)
        assert np.all(np.isfinite(fast))
