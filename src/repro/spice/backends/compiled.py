"""The ``compiled`` backend: fused per-step Newton kernels.

One :meth:`CompiledBackend.step_kernel` call binds a system + step
configuration to a kernel that performs the *entire* per-step Newton
solve — EKV device evaluation, reduced residual/Jacobian assembly,
dense solve, damped update and per-sample convergence masking — in one
C call over the :class:`~repro.spice.backends.maps.ReducedKernelMaps`
operators, instead of the reference path's ~15 python-level dispatches
per Newton iteration.

The backend has two kernels, and which one runs is derived, not
configured (``describe()["flavor"]`` names it):

``cc``
    :class:`CcStepKernel`, compiled from C at runtime and driven
    through ctypes (:mod:`repro.spice.backends._cc`) — used when
    :func:`~repro.spice.backends._cc.load_kernel` returns a library,
    i.e. a C compiler is on PATH.  It also has the *fused transient*:
    the whole backward-Euler time loop in one C call
    (:meth:`CcStepKernel.run_transient`), its samples split across CPU
    threads.
``numpy``
    The reference :class:`~repro.spice.backends.numpy_backend.
    NumpyStepKernel` — used with no cc library, after a failed
    self-check, and for systems out of the cc kernel's contract
    (device-less, no unknowns, more than ``_cc.MAX_NU`` unknowns);
    each such kernel counts ``spice.backend.fallback_steps``.  Results
    are then the ``numpy`` backend's bit for bit, delays included, at
    the reference's speed: a 400-MC Table-II cell takes 0.96–1.08 s on
    one CPU against 0.15–0.17 s through ``cc`` (2-vCPU AVX-512 Xeon
    host, dt 1 ps).

**Safety**: the first solve through the ``cc`` kernel in each process is
replayed on the reference kernel and compared; a disagreement beyond
Newton tolerance permanently demotes the process to the reference
(and counts ``spice.backend.selfcheck_failures``).  Until that check
has passed, transients run the stepped Python loop; only afterwards do
``cc`` transients go fused.  The stepped loop over the per-step ``cc``
kernel and the fused loop perform the same floating-point operations
(the step constant is formed in C in both), so a result never depends
on whether it came from the process's first transient.  ``cc`` kernels
are cached on the system object keyed by ``(backend, dt, batch,
options)``, so the long-lived testbench systems pay the map/workspace
construction once (``spice.backend.jit_cache_hits`` counts reuse).

**Threads**: a fused transient runs on ``min(cpu_slots(),
ceil(active / MIN_SAMPLES_PER_THREAD))`` threads.  :func:`cpu_slots` is
derived, never configured: ``core.parallel.default_workers()`` in a
plain process, ``worker_share(pool size)`` in a ``run_cells`` /
``run_tasks`` pool worker, and ``worker_share(consumers)`` in a job
service consumer thread.  Per-sample results are bitwise invariant to
the thread count and to batch packing.

Offsets produced through the ``cc`` kernel are bit-identical to the
``numpy`` backend (the sign decisions the bisection consumes are ulp-
robust); raw trajectories, and so delays, agree to solver tolerance.
"""

from __future__ import annotations

import collections
import threading
import weakref
from typing import Optional, Sequence, Tuple

import numpy as np

from ...analysis.perf import PERF
from ..solver import ConvergenceError, NewtonOptions
from .base import SolverBackend, StepKernel
from .maps import ReducedKernelMaps
from .numpy_backend import NumpyStepKernel
from . import _cc

#: Semantics version of the fused kernels.  Part of the cache token.
KERNEL_VERSION = "fused-4"

#: Fewest active samples that earn a fused-transient thread of their own.
MIN_SAMPLES_PER_THREAD = 8

# Process-wide flavor state: resolved once, shared by every backend
# instance (kernels are pure functions of their arguments).
_FLAVOR: Optional[Tuple[str, Optional[object]]] = None
_COMPILE_MS: Optional[float] = None
_CC_FLAGS: Optional[str] = None
_SELFCHECK: Optional[str] = None  # None=pending, "ok", "failed"

# CPU slots for fused-transient threads: a process-wide share (set in
# pool workers) and a per-thread share (set by service consumers).
_PROCESS_SLOTS: Optional[int] = None
_THREAD_SLOTS = threading.local()


def set_cpu_slots(slots: int) -> None:
    """Set this process's CPU slots (a pool worker's share)."""
    global _PROCESS_SLOTS
    _PROCESS_SLOTS = max(1, int(slots))


def set_thread_cpu_slots(slots: Optional[int]) -> None:
    """Set the calling thread's CPU slots (``None``: the process's)."""
    _THREAD_SLOTS.value = None if slots is None else max(1, int(slots))


def cpu_slots() -> int:
    """CPU slots a fused transient started by this thread may use."""
    slots = getattr(_THREAD_SLOTS, "value", None)
    if slots is None:
        slots = _PROCESS_SLOTS
    if slots is None:
        from ...core.parallel import default_workers
        slots = default_workers()
    return slots


def _resolve_flavor() -> Tuple[str, Optional[object]]:
    """``("cc", lib)`` if the C kernel loads, else ``("numpy", None)``.

    Resolved once per process.
    """
    global _FLAVOR, _COMPILE_MS, _CC_FLAGS
    if _FLAVOR is None:
        lib, compile_ms, flags = _cc.load_kernel()
        if lib is None:
            _FLAVOR = ("numpy", None)
        else:
            _COMPILE_MS = compile_ms
            _CC_FLAGS = flags
            if compile_ms:
                PERF.gauge("spice.backend.kernel_compile_ms",
                           round(compile_ms, 3))
            _FLAVOR = ("cc", lib)
    return _FLAVOR


def _reset_flavor_cache() -> None:
    """Forget the resolved flavor and the self-check outcome."""
    global _FLAVOR, _SELFCHECK, _COMPILE_MS, _CC_FLAGS
    _FLAVOR = None
    _SELFCHECK = None
    _COMPILE_MS = None
    _CC_FLAGS = None


#: Raw outcome of one fused transient (see CcStepKernel.run_transient).
FusedRun = collections.namedtuple(
    "FusedRun", "steps hist probes decided sample_steps iterations")


class CcStepKernel(StepKernel):
    """The runtime-compiled C step kernel (flavor ``cc``).

    :meth:`solve` runs one step's whole Newton loop in C, step constant
    included; python only passes the previous state and the step's
    current-source terms and flushes perf counters.
    :meth:`run_transient` runs the whole backward-Euler loop in one
    call.
    """

    def __init__(self, maps: ReducedKernelMaps, system, batch: int,
                 options: NewtonOptions, lib) -> None:
        self.maps = maps
        self.system = weakref.proxy(system)  # cached on it: no cycle
        self.options = options
        self._fn = lib.newton_step
        self._transient = lib.transient_be
        nd, nu, n = maps.nd, maps.nu, maps.n
        # Per-sample workspace of one newton_step call (see _cc.C_SOURCE).
        self._wrow = n + 18 * nd + 2 * nu + nu * nu
        self._work = np.empty(self._wrow * batch)
        self._alive = np.empty(batch, dtype=np.int64)
        self._act = np.empty(batch, dtype=np.int64)
        self._counts = np.zeros(4, dtype=np.int64)
        self._no_isrc = np.zeros((1, nu))
        self._v_prev: Optional[np.ndarray] = None
        self._isrc = self._no_isrc

    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        self._v_prev = v_prev
        self._isrc = self._no_isrc
        if self.system._isources:
            table = self.maps.isource_table(np.array([t_new]))[0]
            if table.shape[0]:
                self._isrc = table

    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        maps = self.maps
        options = self.options
        carg = maps.vth_carg()
        active = np.ascontiguousarray(active_idx, dtype=np.int64)
        isrc = self._isrc
        args = (v_new, self._v_prev, active, active.size, maps.Cdt_u,
                isrc, 0 if isrc is self._no_isrc else isrc.shape[0],
                carg, carg.shape[1], maps.M, maps.negA_u, maps.A_uu,
                maps.u, maps.fs_idx, maps.fs_coef, maps.js_idx,
                maps.js_coef, maps.js_w, maps.dev_c, maps.scal, maps.n,
                maps.nu, maps.nd, options.max_iter, self._work,
                self._alive, self._counts)
        status = self._fn(*args)
        # Kernels outlive the run; do not pin its state buffer.
        self._v_prev = None
        depth = int(self._counts[0])
        PERF.count("newton.solves")
        PERF.count("newton.iterations", depth)
        PERF.count("newton.sample_iterations", int(self._counts[1]))
        PERF.count("newton.sample_iterations_saved",
                   depth * active.size - int(self._counts[1]))
        if self._counts[2]:
            PERF.count("newton.singular_members", int(self._counts[2]))
        if self._counts[3]:
            PERF.count("spice.backend.slow_lanes", int(self._counts[3]))
        PERF.count("spice.backend.fused_steps")
        PERF.count("spice.backend.fused_iterations", depth)
        self._raise_for(status)
        return depth

    def _raise_for(self, status: int) -> None:
        if status == -1:
            raise ConvergenceError(
                f"Newton-Raphson did not converge in "
                f"{self.options.max_iter} iterations (compiled cc kernel)")
        if status == -2:
            raise np.linalg.LinAlgError("Singular matrix")

    def fused_transient(self):
        return self.run_transient

    def partitions(self, active: int) -> int:
        """Threads for a fused transient over ``active`` samples."""
        return max(1, min(cpu_slots(),
                          -(-active // MIN_SAMPLES_PER_THREAD)))

    def run_transient(self, times: np.ndarray, v0: np.ndarray,
                      table: np.ndarray, active: np.ndarray,
                      decision: Optional[Tuple[int, int, int, float]],
                      probe_cols: Sequence[int],
                      trajectory, gate: float, extrapolate: bool,
                      record_states: bool) -> FusedRun:
        """Run the whole reduced backward-Euler loop in one C call.

        ``times`` is the full grid, ``v0`` the initial state, ``table``
        the known-column table (``_build_known_table``), ``active`` the
        boolean sample mask and ``decision`` ``(col_a, col_b,
        first_step, threshold)`` or ``None``.  Emits the ``newton.*``,
        ``spice.backend.*`` and warm-seed counters of the stepped loop
        with the same values, and raises its errors.
        """
        maps = self.maps
        options = self.options
        n_steps = times.shape[0] - 1
        batch, n = v0.shape
        hist = np.empty((n_steps + 1 if record_states else 3, batch, n))
        hist[0] = v0
        pcols = np.asarray(probe_cols, dtype=np.int64)
        probes = np.empty((pcols.size, n_steps + 1, batch))
        isrc = maps.isource_table(times)
        traj, traj_len, traj_step = None, 0, 0
        if trajectory is not None:
            # Any step stride will do (a batch-slice view of a stacked
            # run's states is read in place); rows must be contiguous.
            traj = np.asarray(trajectory, dtype=float)
            if traj.shape[1:] != v0.shape:
                raise ValueError(f"trajectory shape {traj.shape} does not "
                                 f"match the state {v0.shape}")
            if traj.strides[1:] != (n * 8, 8) or traj.strides[0] % 8:
                traj = np.ascontiguousarray(traj)
            traj_len, traj_step = traj.shape[0], traj.strides[0] // 8
        dec_a, dec_b, dec_from, threshold = (
            decision if decision is not None else (-1, -1, n_steps + 1,
                                                   0.0))
        active_u8 = np.ascontiguousarray(active, dtype=np.uint8)
        decided = np.zeros(batch, dtype=np.uint8)
        parts = self.partitions(int(np.count_nonzero(active_u8)))
        stats = np.zeros((parts, 7, n_steps + 1), dtype=np.int64)
        result = np.zeros(1 + 2 * parts, dtype=np.int64)
        known = self.system.known_idx.astype(np.int64)
        carg = maps.vth_carg()
        status = self._transient(
            hist, hist.shape[0], probes, pcols, pcols.size, table, known,
            known.size, isrc if isrc.shape[1] else self._no_isrc,
            isrc.shape[1], None if traj is None else traj.ctypes.data,
            traj_len, traj_step, gate, int(extrapolate),
            dec_a, dec_b, dec_from, threshold, active_u8, decided,
            batch, n_steps, maps.Cdt_u, carg, carg.shape[1], maps.M,
            maps.negA_u, maps.A_uu, maps.u, maps.fs_idx, maps.fs_coef,
            maps.js_idx, maps.js_coef, maps.js_w, maps.dev_c, maps.scal,
            maps.n, maps.nu, maps.nd, options.max_iter, self._work,
            self._wrow, self._alive, self._act, parts, stats, result)
        steps = int(result[0])
        # Per-step rows: depth, active, sample iterations, singular,
        # warm seeds, warm rejects, slow lanes; a step's depth is its
        # deepest partition's, exactly like one newton_step over all
        # samples.
        per_step = stats[:, :, 1:steps + 1]
        depth = per_step[:, 0].max(axis=0, initial=0)
        active_n = per_step[:, 1].sum(axis=0)
        sample_iterations = int(per_step[:, 2].sum())
        iterations = int(depth.sum())
        if steps:
            PERF.count("newton.solves", steps)
            PERF.count("newton.iterations", iterations)
            PERF.count("newton.sample_iterations", sample_iterations)
            PERF.count("newton.sample_iterations_saved",
                       int((depth * active_n).sum()) - sample_iterations)
            singular = int(per_step[:, 3].sum())
            if singular:
                PERF.count("newton.singular_members", singular)
            slow = int(per_step[:, 6].sum())
            if slow:
                PERF.count("spice.backend.slow_lanes", slow)
            PERF.count("spice.backend.fused_steps", steps)
            PERF.count("spice.backend.fused_iterations", iterations)
            if traj_len >= 2:
                seeded = per_step[:, 4, :traj_len - 1].sum()
                rejected = per_step[:, 5, :traj_len - 1].sum()
                PERF.count("transient.warm_seeds", int(seeded))
                PERF.count("transient.warm_rejects", int(rejected))
        self._raise_for(status)
        return FusedRun(steps=steps, hist=hist, probes=probes,
                        decided=decided.view(bool),
                        sample_steps=int(active_n.sum()),
                        iterations=iterations)


class _SelfCheckKernel(StepKernel):
    """First-use validation wrapper around the ``cc`` kernel.

    The first solve routed through this wrapper is replayed on the
    reference :class:`NumpyStepKernel`; agreement within Newton
    tolerance unlocks the fast kernel for the rest of the process,
    disagreement demotes the whole process to the reference kernel and
    answers with the reference result.
    """

    #: Agreement threshold [V]; generous vs any vtol in use (1e-8..1e-7)
    #: while far below every decision threshold in the testbench.
    ATOL = 1e-6

    def __init__(self, fast: CcStepKernel,
                 reference: NumpyStepKernel) -> None:
        self._fast = fast
        self._reference = reference
        self._mode = "check"

    def _go_fast(self) -> None:
        # The reference keeps the last previous state it was given.
        self._mode = "fast"
        self._reference = None

    def fused_transient(self):
        # Stepped (and so checked) until the process's check passed.
        return self._fast.fused_transient() if _SELFCHECK == "ok" else None

    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        if self._mode != "fallback":
            self._fast.begin_step(t_new, v_prev)
        if self._mode != "fast":
            self._reference.begin_step(t_new, v_prev)

    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        global _SELFCHECK
        if self._mode == "fast":
            return self._fast.solve(v_new, active_idx)
        if self._mode == "fallback":
            return self._reference.solve(v_new, active_idx)
        if _SELFCHECK == "ok":
            self._go_fast()
            return self._fast.solve(v_new, active_idx)
        if _SELFCHECK == "failed":
            self._mode = "fallback"
            return self._reference.solve(v_new, active_idx)
        reference_v = v_new.copy()
        reference_iters = self._reference.solve(reference_v, active_idx)
        iterations = self._fast.solve(v_new, active_idx)
        if np.allclose(v_new, reference_v, rtol=0.0, atol=self.ATOL):
            _SELFCHECK = "ok"
            self._go_fast()
            return iterations
        _SELFCHECK = "failed"
        PERF.count("spice.backend.selfcheck_failures")
        self._mode = "fallback"
        np.copyto(v_new, reference_v)
        return reference_iters


class CompiledBackend(SolverBackend):
    """Fused-kernel backend: the ``cc`` kernel, else the reference."""

    name = "compiled"
    kernel_version = KERNEL_VERSION

    def describe(self) -> dict:
        flavor, lib = _resolve_flavor()
        if _SELFCHECK == "failed":
            flavor = "numpy"
        return {
            "backend": self.name,
            "kernel_version": self.kernel_version,
            "flavor": flavor,
            "cc": {"available": _cc.compiler_available(),
                   "flags": _CC_FLAGS,
                   "libm": None if lib is None else _cc.libm_path(lib)},
            "kernel_compile_ms": (round(_COMPILE_MS, 3)
                                  if _COMPILE_MS is not None else None),
            "cpu_slots": cpu_slots(),
        }

    def step_kernel(self, system, c_over_dt: np.ndarray, dt: float,
                    batch: int, options: NewtonOptions) -> StepKernel:
        devices = getattr(system, "_devices", None)
        lib = None
        if (devices is not None and devices.polarity.shape[0]
                and 0 < system.unknown_idx.size <= _cc.MAX_NU
                and _SELFCHECK != "failed"):
            lib = _resolve_flavor()[1]
        if lib is None:
            # No cc kernel (no library, a failed self-check, or a system
            # out of its contract): the reference kernel, so results are
            # exactly the numpy backend's, delays included.
            PERF.count("spice.backend.fallback_steps")
            return NumpyStepKernel(system, c_over_dt, batch, options)
        cache = system.__dict__.setdefault("_backend_step_kernels", {})
        key = (self.name, float(dt), int(batch), options)
        kernel = cache.get(key)
        if kernel is not None:
            PERF.count("spice.backend.jit_cache_hits")
            return kernel
        maps = ReducedKernelMaps(system, c_over_dt, options)
        kernel = CcStepKernel(maps, system, batch, options, lib)
        if _SELFCHECK is None:
            # Built on the kernel's weak proxy: the wrapper is cached on
            # the system, and the reference holds its system strongly.
            kernel = _SelfCheckKernel(kernel, NumpyStepKernel(
                kernel.system, c_over_dt, batch, options))
        cache[key] = kernel
        return kernel
