"""Batched damped Newton-Raphson solver with active-sample masking.

Solves ``f(v) = 0`` on the unknown-node subset of a full node-voltage
vector, for every Monte-Carlo sample simultaneously.  A plain residual/
Jacobian callback returns full-node quantities and the solver slices
the unknown block; a callback marked ``reduced`` (the transient
engine's stepper) evaluates only the still-active rows and returns the
unknown block itself.  Either way the solver performs a batched dense
solve and applies a damped (step-clipped) update.  Step clipping is the
standard way to keep the strongly nonlinear exponential device
characteristics from overshooting.

**Active-sample masking**: batch members are mathematically independent
(the batched Jacobian is block-diagonal per sample), so a sample whose
step fell below the voltage tolerance is finished and drops out of the
iteration instead of being re-solved to ``max_iter`` parity with its
slowest sibling.  Full-node callbacks are still evaluated on the whole
batch, but only the active members pay for the dense solve and update.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

import numpy as np

from ..analysis.perf import PERF

def _raise_singular(err, flag):  # pragma: no cover - trivial
    raise np.linalg.LinAlgError("Singular matrix")


try:  # pragma: no cover - availability depends on the numpy build
    from numpy._core.umath import _extobj_contextvar, _make_extobj
    from numpy.linalg import _umath_linalg as _UMATH_LINALG
    _GUFUNC_SOLVE1 = _UMATH_LINALG.solve1
    # The error-handling state ``np.linalg.solve`` installs around the
    # kernel, built once instead of per call (``np.errstate`` objects
    # are single-use and rebuild it on every ``__enter__``).
    _SOLVE_EXTOBJ = _make_extobj(call=_raise_singular, invalid="call",
                                 over="ignore", divide="ignore",
                                 under="ignore")
except (ImportError, AttributeError, TypeError):  # pragma: no cover
    _GUFUNC_SOLVE1 = None
    _SOLVE_EXTOBJ = None


def _gufunc_solve(jac_uu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` for a ``(batch, n)`` right-hand side.

    Calls the LAPACK gufunc behind ``np.linalg.solve`` directly when it
    is importable — the wrapper's dtype promotion, reshaping and
    per-call error-state construction cost several microseconds per
    call, which the Newton loop pays tens of thousands of times per
    grid.  The gufunc is the *same* kernel the wrapper dispatches to
    (same memory layout, same ``dd->d`` loop), so the solutions are
    bit-identical, and the precomputed error-state object reproduces
    the wrapper's singular-matrix ``LinAlgError``.
    """
    if _GUFUNC_SOLVE1 is not None and jac_uu.dtype == np.float64 \
            and rhs.dtype == np.float64:
        token = _extobj_contextvar.set(_SOLVE_EXTOBJ)
        try:
            return _GUFUNC_SOLVE1(jac_uu, rhs, signature="dd->d")
        finally:
            _extobj_contextvar.reset(token)
    return np.linalg.solve(jac_uu, rhs[..., None])[..., 0]


#: Default absolute voltage tolerance for convergence [V].
VTOL_DEFAULT = 1e-7
#: Default maximum Newton step per iteration [V].
MAX_STEP_DEFAULT = 0.25
#: Default iteration limit.
MAX_ITER_DEFAULT = 100


class ConvergenceError(RuntimeError):
    """Raised when Newton-Raphson fails to converge."""


@dataclasses.dataclass(frozen=True)
class NewtonOptions:
    """Tuning knobs for the Newton solver."""

    vtol: float = VTOL_DEFAULT
    max_step: float = MAX_STEP_DEFAULT
    max_iter: int = MAX_ITER_DEFAULT
    #: Added to the Jacobian diagonal if a batch member is singular.
    regularisation: float = 1e-12


ResJacFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _solve_batched(jac_uu: np.ndarray, rhs: np.ndarray,
                   regularisation: float) -> np.ndarray:
    """Batched dense solve; singular members are regularised individually.

    Accepts a 3-D stack ``(batch, n, n)`` with ``(batch, n)`` right-hand
    sides, or a genuine 2-D single system ``(n, n)`` with an ``(n,)``
    right-hand side (promoted to a one-member batch so both shapes share
    the regularisation fallback).

    ``np.linalg.solve`` raises as soon as *any* batch member is
    singular, so the fallback walks the batch and bumps the diagonal of
    only the offending members — healthy samples keep their exact,
    unperturbed solution.
    """
    if jac_uu.ndim == 2:
        return _solve_batched(jac_uu[None], rhs[None], regularisation)[0]
    try:
        return np.linalg.solve(jac_uu, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return _regularised_solve(jac_uu, rhs, regularisation)


def _regularised_solve(jac_uu: np.ndarray, rhs: np.ndarray,
                       regularisation: float) -> np.ndarray:
    """Walk the batch, bumping the diagonal of only singular members."""
    out = np.empty_like(rhs)
    bump = regularisation * np.eye(jac_uu.shape[-1])
    for member in range(jac_uu.shape[0]):
        try:
            out[member] = np.linalg.solve(jac_uu[member], rhs[member])
        except np.linalg.LinAlgError:
            PERF.count("newton.singular_members")
            out[member] = np.linalg.solve(jac_uu[member] + bump,
                                          rhs[member])
    return out


def _solve_batched_fast(jac_uu: np.ndarray, rhs: np.ndarray,
                        regularisation: float) -> np.ndarray:
    """:func:`_solve_batched` via the direct LAPACK gufunc.

    Used by the reduced Newton loop, which runs once per transient
    step.  Solutions are bit-identical to :func:`_solve_batched` (same
    LAPACK loop); singular batches fall back to the same per-member
    regularisation.
    """
    try:
        return _gufunc_solve(jac_uu, rhs)
    except np.linalg.LinAlgError:
        return _regularised_solve(jac_uu, rhs, regularisation)


def newton_solve(res_jac: ResJacFn, v_full: np.ndarray,
                 unknown_idx: np.ndarray,
                 options: NewtonOptions = NewtonOptions(),
                 active: Optional[np.ndarray] = None,
                 ) -> Tuple[np.ndarray, int]:
    """Drive the unknown nodes of ``v_full`` to a KCL solution in place.

    Parameters
    ----------
    res_jac:
        Callback mapping the full node vector ``(batch, n)`` to the
        residual ``(batch, n)`` and Jacobian ``(batch, n, n)``.  A
        callback with a true ``reduced`` attribute is instead called as
        ``res_jac(v_rows, active_idx)`` with only the still-active rows
        and returns the unknown-block residual ``(rows, n_u)`` and
        Jacobian ``(rows, n_u, n_u)`` (see :func:`_reduced_newton`).
    v_full:
        Full node vector; known/source entries must already be applied.
        Modified in place and also returned.
    unknown_idx:
        Indices of the nodes to solve for.
    options:
        Solver tuning.
    active:
        Optional index array restricting the solve to a subset of batch
        members (e.g. transient samples whose latch decision is still
        pending); the rest are left untouched.

    Returns
    -------
    (v_full, iterations)
        ``iterations`` is the worst (deepest) per-sample iteration
        count.

    Raises
    ------
    ConvergenceError
        If any batch member fails to converge within ``max_iter``.
    """
    u = unknown_idx
    row = u[:, None]
    col = u[None, :]

    if active is None:
        active_idx = np.arange(v_full.shape[0])
    else:
        active_idx = np.asarray(active, dtype=int)
        if active_idx.size == 0:
            return v_full, 0
    initial_count = active_idx.size

    if getattr(res_jac, "reduced", False):
        # The callback already returns unknown-block quantities, so the
        # per-iteration ``jac[:, row, col]`` / ``f[:, u]`` copies vanish.
        return _reduced_newton(res_jac, v_full, u, options, active_idx,
                               initial_count)

    PERF.count("newton.solves")
    delta = None
    for iteration in range(1, options.max_iter + 1):
        f, jac = res_jac(v_full)
        f = f[active_idx]
        jac = jac[active_idx]
        delta = _solve_batched(jac[:, row, col], -f[:, u],
                               options.regularisation)
        np.clip(delta, -options.max_step, options.max_step, out=delta)
        v_full[active_idx[:, None], u[None, :]] += delta
        PERF.count("newton.iterations")
        PERF.count("newton.sample_iterations", active_idx.size)
        PERF.count("newton.sample_iterations_saved",
                   initial_count - active_idx.size)
        per_sample = np.max(np.abs(delta), axis=-1)
        unconverged = per_sample >= options.vtol
        if not unconverged.any():
            return v_full, iteration
        active_idx = active_idx[unconverged]
    worst = float(np.max(np.abs(delta)))
    raise ConvergenceError(
        f"Newton-Raphson did not converge in {options.max_iter} iterations "
        f"(last max step {worst:.3e} V)")


def _reduced_newton(res_jac: ResJacFn, v_full: np.ndarray, u: np.ndarray,
                    options: NewtonOptions, active_idx: np.ndarray,
                    initial_count: int) -> Tuple[np.ndarray, int]:
    """Newton loop for callbacks that return unknown-block quantities.

    The callback is called as ``res_jac(v_rows, rows)`` and returns
    ``(f_u, jac_uu)`` already restricted to the unknown block — there is
    nothing to slice, and the update applies ``delta`` straight to the
    unknown columns.  The update equals the full-space loop's
    (``clip(x, -s, s)`` equals the min/max pair used here).  The
    callback may return workspace views; the loop consumes them in
    place (``f_u`` is negated, ``delta`` is clipped and folded into its
    own convergence norm).

    Perf counters are accumulated locally and flushed once per solve
    (identical totals to the per-iteration counting of the full-space
    loop, without its per-iteration dict updates).
    """
    u_col = u[None, :]
    iterations = 0
    sample_iterations = 0
    saved = 0
    per_sample = None
    batch_full = v_full.shape[0]
    try:
        for iteration in range(1, options.max_iter + 1):
            # ``active_idx`` is sorted and unique, so covering the batch
            # means it IS arange(batch): skip the row gather/scatter.
            everyone = active_idx.size == batch_full
            rows = v_full if everyone else v_full[active_idx]
            f_u, jac_uu = res_jac(rows, active_idx)
            rhs = np.negative(f_u, out=f_u)
            delta = _solve_batched_fast(jac_uu, rhs, options.regularisation)
            np.minimum(delta, options.max_step, out=delta)
            np.maximum(delta, -options.max_step, out=delta)
            if everyone:
                v_full[:, u] += delta
            else:
                v_full[active_idx[:, None], u_col] += delta
            iterations += 1
            sample_iterations += active_idx.size
            saved += initial_count - active_idx.size
            np.abs(delta, out=delta)
            per_sample = delta.max(axis=-1)
            unconverged = per_sample >= options.vtol
            if not unconverged.any():
                return v_full, iteration
            active_idx = active_idx[unconverged]
    finally:
        PERF.count("newton.solves")
        PERF.count("newton.iterations", iterations)
        PERF.count("newton.sample_iterations", sample_iterations)
        PERF.count("newton.sample_iterations_saved", saved)
    worst = float(per_sample.max())
    raise ConvergenceError(
        f"Newton-Raphson did not converge in {options.max_iter} iterations "
        f"(last max step {worst:.3e} V)")

