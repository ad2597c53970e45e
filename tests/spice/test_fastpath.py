"""Tests for the simulation fast path.

Covers the four fast-path pillars: stacked all-device model evaluation,
active-sample masking in the Newton loop, early-decision transient
termination, and the per-member regularisation fix in the batched dense
solve.
"""

import numpy as np
import pytest

from repro.circuits.sense_amp import ReadTiming, build_nssa
from repro.core.calibration import default_aging_model
from repro.core.montecarlo import McSettings, sample_total_shifts
from repro.core.testbench import SenseAmpTestbench
from repro.models import Environment, MismatchModel, NMOS_45HP, PMOS_45HP
from repro.models.mosmodel import mos_current
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.solver import (ConvergenceError, NewtonOptions,
                                _solve_batched, newton_solve)
from repro.spice.transient import DecisionSpec
from repro.spice.waveforms import Dc
from repro.workloads import paper_workload


def inverter_pair(batch: int = 5) -> MnaSystem:
    """A CMOS inverter driving a second one — mixed polarities."""
    c = Circuit("inv2")
    c.add_vsource("vdd", "vdd", Dc(1.0))
    c.add_vsource("vin", "in", Dc(0.45))
    c.add_mosfet("mp1", "mid", "in", "vdd", "vdd", PMOS_45HP, w_over_l=4.0)
    c.add_mosfet("mn1", "mid", "in", "0", "0", NMOS_45HP, w_over_l=2.0)
    c.add_mosfet("mp2", "out", "mid", "vdd", "vdd", PMOS_45HP, w_over_l=4.0)
    c.add_mosfet("mn2", "out", "mid", "0", "0", NMOS_45HP, w_over_l=2.0)
    c.add_resistor("rload", "out", "0", 1e6)
    return c


def per_device_stamps(system: MnaSystem, v: np.ndarray):
    """Residual and Jacobian stamped one device at a time.

    The textbook MNA assembly over :func:`mos_current`, the reference
    the stacked device table is checked against.
    """
    f = v @ system.g_static.T
    jac = np.broadcast_to(system.g_static, (v.shape[0],)
                          + system.g_static.shape).copy()
    shifts = system.vth_shifts()
    for m in system.circuit.mosfets:
        d, g, s, b = (system._index_of(node) for node in
                      (m.drain, m.gate, m.source, m.bulk))
        i_d, gm, gd, gs = mos_current(
            v[:, g], v[:, d], v[:, s], v[:, b], shifts[m.name], m.params,
            m.w_over_l, system.temperature_k)
        f[:, d] += i_d
        f[:, s] -= i_d
        for col, gx in ((g, gm), (d, gd), (s, gs)):
            jac[:, d, col] += gx
            jac[:, s, col] -= gx
    return f, jac


class TestStackedEvaluation:
    """The one-shot device table must match the per-device stamps."""

    def _system(self, batch=5):
        system = MnaSystem(inverter_pair(), 300.0, batch_size=batch)
        rng = np.random.default_rng(3)
        system.set_vth_shifts({"mn1": rng.normal(0.0, 0.02, batch),
                               "mp2": rng.normal(0.0, 0.02, batch)})
        v = np.clip(rng.normal(0.5, 0.3, (batch, system.n_nodes)),
                    -0.2, 1.2)
        system.apply_known(v, 0.0)
        return system, v

    def test_residual_jacobian_match(self):
        system, v = self._system()
        f_s, jac_s = system.static_residual_jacobian(v, 0.0)
        f_l, jac_l = per_device_stamps(system, v)
        np.testing.assert_allclose(f_s, f_l, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(jac_s, jac_l, rtol=0.0, atol=1e-15)

    def test_active_slice_matches_full(self):
        system, v = self._system()
        active = np.array([0, 2, 4])
        f_full, jac_full = system.static_residual_jacobian(v, 0.0)
        f_act, jac_act = system.static_residual_jacobian(v[active], 0.0,
                                                         active=active)
        np.testing.assert_array_equal(f_act, f_full[active])
        np.testing.assert_array_equal(jac_act, jac_full[active])


class TestMaskedNewton:
    """Converged samples may drop out without changing the solution."""

    def _system(self):
        # Per-sample Vth spread makes convergence depth heterogeneous:
        # masking actually has samples to retire early.
        batch = 8
        system = MnaSystem(inverter_pair(), 300.0, batch_size=batch)
        system.set_vth_shifts(
            {"mn1": np.linspace(-0.08, 0.08, batch),
             "mp1": np.linspace(0.06, -0.06, batch)})
        v = system.initial_full_vector(0.0, {"mid": 0.5, "out": 0.5})
        return system, v

    def test_masked_matches_unmasked(self):
        system, v = self._system()
        u = system.unknown_idx
        options = NewtonOptions()

        def res_jac(v_full):
            return system.static_residual_jacobian(v_full, 0.0)

        v_masked, iterations = newton_solve(res_jac, v.copy(), u, options)
        # The unmasked reference: every sample iterates until the
        # slowest one has converged.
        v_unmasked = v.copy()
        for _ in range(iterations):
            f, jac = res_jac(v_unmasked)
            delta = _solve_batched(jac[:, u[:, None], u[None, :]], -f[:, u],
                                   options.regularisation)
            v_unmasked[:, u] += np.clip(delta, -options.max_step,
                                        options.max_step)
        assert not np.array_equal(v_masked, v_unmasked)
        # Both are converged solutions of the same system; they can
        # differ only below the Newton tolerance.
        np.testing.assert_allclose(v_masked, v_unmasked, rtol=0.0,
                                   atol=options.vtol)

    def test_active_subset_leaves_others_untouched(self):
        batch = 6
        system = MnaSystem(inverter_pair(), 300.0, batch_size=batch)
        v = system.initial_full_vector(0.0, {"mid": 0.3, "out": 0.7})
        frozen = v.copy()

        def res_jac(v_full):
            return system.static_residual_jacobian(v_full, 0.0)

        active = np.array([1, 4])
        v, _ = newton_solve(res_jac, v, system.unknown_idx,
                            NewtonOptions(), active=active)
        inactive = np.setdiff1d(np.arange(batch), active)
        np.testing.assert_array_equal(v[inactive], frozen[inactive])
        f, _ = system.static_residual_jacobian(v[active], 0.0)
        assert np.max(np.abs(f[:, system.unknown_idx])) < 1e-6

    def test_empty_active_is_a_noop(self):
        system = MnaSystem(inverter_pair(), 300.0, batch_size=3)
        v = system.initial_full_vector(0.0, None)
        before = v.copy()

        def res_jac(v_full):  # pragma: no cover - must not be called
            raise AssertionError("res_jac called with no active samples")

        v, iterations = newton_solve(res_jac, v, system.unknown_idx,
                                     NewtonOptions(),
                                     active=np.array([], dtype=int))
        assert iterations == 0
        np.testing.assert_array_equal(v, before)


class TestPerMemberRegularisation:
    """A singular member must not perturb its healthy batch siblings."""

    def test_healthy_members_exact(self):
        rng = np.random.default_rng(11)
        jac = rng.normal(size=(4, 3, 3))
        jac[2] = 0.0  # singular member
        rhs = rng.normal(size=(4, 3))
        out = _solve_batched(jac, rhs, regularisation=1e-12)
        for member in (0, 1, 3):
            exact = np.linalg.solve(jac[member], rhs[member])
            np.testing.assert_array_equal(out[member], exact)
        assert np.all(np.isfinite(out[2]))

    def test_single_system_fallback(self):
        out = _solve_batched(np.zeros((2, 2)), np.ones(2),
                             regularisation=1e-9)
        assert np.all(np.isfinite(out))

    def test_convergence_error_still_raised(self):
        # A singular Jacobian with a non-trivial residual cannot
        # converge: the regularised steps keep hitting the step clip.
        def res_jac(v_full):
            f = np.ones_like(v_full)
            jac = np.zeros(v_full.shape + v_full.shape[-1:])
            return f, jac

        v = np.zeros((2, 2))
        with pytest.raises(ConvergenceError):
            newton_solve(res_jac, v, np.array([0, 1]),
                         NewtonOptions(max_iter=5))


def aged_testbench(batch: int, env: Environment,
                   early: bool) -> SenseAmpTestbench:
    design = build_nssa()
    tb = SenseAmpTestbench(design, env, batch_size=batch,
                           timing=ReadTiming(dt=1e-12),
                           early_decision=early)
    shifts = sample_total_shifts(
        design, default_aging_model(), paper_workload("80r0"), 1e8, env,
        McSettings(size=batch, seed=2017, mismatch=MismatchModel()))
    tb.set_vth_shifts(shifts)
    return tb


class TestEarlyDecision:
    """Early-terminated sign resolution must agree with the full window."""

    @pytest.mark.parametrize("temp_c,vdd", [(25.0, 1.0), (125.0, 0.9)])
    def test_sign_agreement_across_search_range(self, temp_c, vdd):
        env = Environment.from_celsius(temp_c, vdd)
        full = aged_testbench(16, env, early=False)
        fast = aged_testbench(16, env, early=True)
        for vin in np.linspace(-0.25, 0.25, 9):
            signs_full = full.resolve_sign(vin, t_window=60e-12)
            signs_fast = fast.resolve_sign(vin, t_window=60e-12)
            np.testing.assert_array_equal(signs_fast, signs_full)

    def test_decided_flag_and_truncation(self):
        env = Environment.nominal()
        tb = aged_testbench(8, env, early=True)
        result = tb.run_read(np.full(8, 0.25), probes=("s", "sbar"),
                             t_window=60e-12, decision=tb.decision_spec())
        assert result.decided is not None
        assert result.decided.all()
        # All samples latch hard at +250 mV input: the run must stop
        # well before the full window.
        assert result.times[-1] < 60e-12

    def test_sample_mask_freezes_samples(self):
        env = Environment.nominal()
        tb = aged_testbench(6, env, early=False)
        mask = np.array([True, False, True, True, False, True])
        result = tb.run_read(np.full(6, 0.1), probes=("s", "sbar"),
                             t_window=20e-12, sample_mask=mask)
        s = result.probe("s")
        # Masked samples never leave their initial state.
        np.testing.assert_array_equal(s[:, ~mask],
                                      np.broadcast_to(s[0, ~mask],
                                                      s[:, ~mask].shape))
        assert np.any(s[-1, mask] != s[0, mask])

    def test_delay_unchanged_by_early_decision(self):
        env = Environment.nominal()
        full = aged_testbench(8, env, early=False)
        fast = aged_testbench(8, env, early=True)
        np.testing.assert_allclose(fast.sensing_delay(-0.2),
                                   full.sensing_delay(-0.2),
                                   rtol=0.0, atol=1e-18)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DecisionSpec("s", "sbar", threshold=0.0)

