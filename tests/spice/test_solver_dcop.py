"""Tests for the batched Newton solver."""

import numpy as np
import pytest

from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.solver import (ConvergenceError, NewtonOptions,
                                newton_solve)
from repro.spice.waveforms import Dc


class TestNewtonSolve:
    def test_linear_network_one_iteration_family(self):
        c = Circuit()
        c.add_vsource("v", "in", Dc(3.0))
        c.add_resistor("r1", "in", "mid", 2e3)
        c.add_resistor("r2", "mid", "0", 1e3)
        system = MnaSystem(c, 300.0)
        v = system.initial_full_vector(0.0)

        def res_jac(vv):
            system.apply_known(vv, 0.0)
            return system.static_residual_jacobian(vv, 0.0)

        v, iters = newton_solve(res_jac, v, system.unknown_idx)
        assert v[0, system.node_index["mid"]] == pytest.approx(1.0,
                                                               rel=1e-4)
        # Step clipping (0.25 V) means a 1 V target takes a few linear
        # steps, but never many.
        assert iters <= 10

    def test_convergence_error(self):
        def res_jac(v):
            f = np.ones_like(v)
            jac = np.broadcast_to(np.eye(v.shape[1]),
                                  (v.shape[0],) + (v.shape[1],) * 2).copy()
            return f, jac

        with pytest.raises(ConvergenceError):
            newton_solve(res_jac, np.zeros((1, 2)), np.array([1]),
                         NewtonOptions(max_iter=5))

    def test_options_validation_range(self):
        options = NewtonOptions(vtol=1e-9, max_step=0.1, max_iter=200)
        assert options.vtol == 1e-9

