"""Solver-backend interface for the reduced transient hot loop.

A :class:`SolverBackend` turns a compiled :class:`~repro.spice.mna.
MnaSystem` plus one backward-Euler step configuration into a
:class:`StepKernel` — the object the transient engine drives once per
time step.  The kernel owns whatever precomputation and workspaces it
needs; the engine calls ``begin_step`` (new time point, previous
accepted state) followed by ``solve`` (Newton-iterate the still-active
rows of ``v_new`` in place) once per time step — or, when the kernel
offers one, hands the whole run to :meth:`StepKernel.fused_transient`.

Two backends ship:

``numpy``
    The PR-3 reduced path, verbatim: ``_ReducedStepper`` +
    :func:`repro.spice.solver.newton_solve`.  This is the bitwise
    reference every other backend is measured against.
``compiled``
    A runtime-compiled C kernel (device evaluation + reduced assembly +
    dense solve in one pass, with a fused whole-transient loop) where a
    C compiler is available, and the ``numpy`` reference kernel
    everywhere else — bit for bit the ``numpy`` backend there, at its
    speed (a 400-MC Table-II cell: ~1.3 s on one CPU against ~0.3 s
    through C).  See :mod:`repro.spice.backends.compiled`.

Backends are identified in the persistent result cache by
:meth:`SolverBackend.cache_token` (backend name + kernel version), so
results produced by different backends never collide.
"""

from __future__ import annotations

import abc
from typing import Any, Dict

import numpy as np


class StepKernel(abc.ABC):
    """One backward-Euler step solver bound to a system/dt/batch/options."""

    def fused_transient(self):
        """The kernel's whole-transient runner, or ``None``.

        A kernel that can run the entire reduced backward-Euler loop in
        one call returns that callable (see :meth:`repro.spice.
        backends.compiled.CcStepKernel.run_transient`); the transient
        engine then skips its per-step loop.  Results must be bitwise
        equal to the per-step loop over :meth:`begin_step`/:meth:`solve`.
        """
        return None

    @abc.abstractmethod
    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        """Announce the next time point and the previous accepted state.

        ``v_prev`` is the full node vector ``(batch, n_nodes)`` at the
        previous accepted point; the kernel may keep a reference until
        the matching :meth:`solve` returns but must not mutate it.
        """

    @abc.abstractmethod
    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        """Newton-solve the step in place on ``v_new``; return iterations.

        ``v_new`` arrives with known/source columns already applied and
        the unknown columns holding the Newton guess; only rows listed
        in ``active_idx`` (sorted, unique) may be modified.  Returns the
        deepest per-sample iteration count, exactly like
        :func:`repro.spice.solver.newton_solve`.  Raises
        :class:`repro.spice.solver.ConvergenceError` when any active
        sample fails to converge.
        """


class SolverBackend(abc.ABC):
    """Factory for :class:`StepKernel` instances, plus identity metadata."""

    #: Registry / CLI name of the backend.
    name: str = "abstract"
    #: Version of the kernel semantics; bumped whenever the kernel's
    #: numerical behaviour could change.  Part of the cache token.
    kernel_version: str = "0"

    def cache_token(self) -> Dict[str, str]:
        """Identity salted into the content-addressed result cache key."""
        return {"name": self.name, "kernel": self.kernel_version}

    def describe(self) -> Dict[str, Any]:
        """Benchmark/host metadata: backend id plus runtime facts."""
        return {"backend": self.name, "kernel_version": self.kernel_version}

    @abc.abstractmethod
    def step_kernel(self, system, c_over_dt: np.ndarray, dt: float,
                    batch: int, options) -> StepKernel:
        """Build (or fetch a cached) step kernel for one transient run.

        Parameters mirror what ``run_transient`` holds: the compiled
        ``system``, the precomputed ``c_matrix / dt`` operator, the step
        ``dt`` itself (cache key), the batch size and the
        :class:`~repro.spice.solver.NewtonOptions`.
        """
