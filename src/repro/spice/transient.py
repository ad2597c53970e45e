"""Fixed-step transient analysis with early-decision termination.

Integrates the compiled system with backward Euler and a batched
Newton solve per time step, assembled on the unknown-node block
(:meth:`~repro.spice.mna.MnaSystem.reduced_residual_jacobian`) and
dispatched through a solver backend.  Fixed steps are the right
trade-off here: the sense-amplifier experiments always simulate the
same short, well-characterised window (develop phase plus
regeneration), and a fixed grid makes the batched arithmetic simple
and the measurements deterministic.

**Early decision** (the offset-extraction fast path): regeneration in a
latch is exponential, so the resolved sign is fixed long before the
outputs settle to full swing.  A :class:`DecisionSpec` names a
differential node pair and a threshold; once a sample's differential
latches past the threshold (after the develop phase) that sample is
frozen and drops out of the remaining steps, and the whole run stops as
soon as every sample has decided.  Samples may also be excluded from the
start via ``sample_mask`` (e.g. bisection samples already flagged
out-of-range).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..analysis.perf import PERF
from .backends import resolve_backend
from .backends.base import SolverBackend
from .mna import MnaSystem
from .solver import NewtonOptions


@dataclasses.dataclass(frozen=True)
class DecisionSpec:
    """Early-termination rule for sign-resolution transients.

    Attributes
    ----------
    node_a / node_b:
        The differential pair whose separation signals a latched
        decision (``s`` / ``sbar`` for the paper's sense amplifiers).
    threshold:
        Absolute differential [V] past which the decision is considered
        irreversible.  Together with ``t_min`` it must exceed any
        wrong-sign excursion the pair can show once decisions are being
        checked (for the SA testbench: the input-driven develop residue
        left after the enable rise), otherwise a transient swing could
        fake a decision.
    t_min:
        Earliest time [s] a decision may be declared (end of the
        develop phase + enable rise).
    """

    node_a: str
    node_b: str
    threshold: float
    t_min: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError("decision threshold must be positive")


@dataclasses.dataclass
class TransientResult:
    """Recorded probe voltages of one transient run.

    Attributes
    ----------
    times:
        Time grid ``(n_steps,)`` [s], including the initial point.  With
        early decision the grid is truncated at the step where the last
        sample decided.
    voltages:
        Probe node name -> array ``(n_steps, batch)`` [V].
    final:
        Full node vector at the last simulated point
        ``(batch, n_nodes)``; decided samples hold the frozen state of
        their decision step.
    newton_iterations:
        Total Newton iterations spent (performance diagnostics).
    decided:
        Per-sample True where a :class:`DecisionSpec` fired (None when
        no decision rule was active).
    states:
        Full node vectors at every accepted point as one ``(n_steps,
        batch, n_nodes)`` array (``states[0]`` is the initial state,
        ``states[k]`` the state after step ``k``), only recorded when
        ``record_states=True``.  The array is the solver's own buffer
        (zero-copy; ``final`` may be a view of it); treat it as
        read-only.  Used to seed the next bisection iteration's Newton
        guesses.
    """

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    final: np.ndarray
    newton_iterations: int = 0
    decided: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None

    def probe(self, node: str) -> np.ndarray:
        """Waveform of ``node``: shape ``(n_steps, batch)``."""
        try:
            return self.voltages[node]
        except KeyError:
            raise KeyError(
                f"node {node!r} was not probed; available: "
                f"{sorted(self.voltages)}") from None

    def differential(self, node_a: str, node_b: str) -> np.ndarray:
        """Waveform of ``V(node_a) - V(node_b)``."""
        return self.probe(node_a) - self.probe(node_b)


def run_transient(system: MnaSystem,
                  t_stop: float,
                  dt: float,
                  probes: Sequence[str],
                  initial: Optional[Dict[str, float]] = None,
                  t_start: float = 0.0,
                  initial_state: Optional[np.ndarray] = None,
                  options: NewtonOptions = NewtonOptions(),
                  decision: Optional[DecisionSpec] = None,
                  sample_mask: Optional[np.ndarray] = None,
                  guess_trajectory: Optional[Sequence[np.ndarray]] = None,
                  guess_gate: float = 0.2,
                  extrapolate: bool = False,
                  record_states: bool = False,
                  backend: Union[SolverBackend, str, None] = None,
                  ) -> TransientResult:
    """Run a transient simulation.

    The per-step Newton solve dispatches through a solver backend (see
    :mod:`repro.spice.backends`); the rest of the loop is
    backend-independent: a known-voltage table built once replaces
    per-step source evaluation, probe samples land in preallocated
    ``(n_steps + 1, batch)`` arrays, and the node vectors live in one
    preallocated ``(n_steps + 1, batch, n)`` state array when states
    are recorded, else cycle through a three-slot ring (``v_prev2`` /
    ``v_prev`` / target).  A kernel with a fused whole-transient runner
    (the ``cc`` flavor, see
    :meth:`~repro.spice.backends.base.StepKernel.fused_transient`)
    takes the entire loop in one call instead; the stepped loop over
    the same kernel's per-step solve is its bitwise reference.

    Parameters
    ----------
    system:
        Compiled circuit.
    t_stop:
        End time [s] (exclusive of rounding; the grid covers
        ``t_start .. t_stop``).
    dt:
        Fixed time step [s].
    probes:
        Node names to record.
    initial:
        Initial voltages for unknown nodes (ignored when
        ``initial_state`` is given).
    t_start:
        Start time [s].
    initial_state:
        Full node vector to start from (e.g. a DC operating point);
        copied, not mutated.
    options:
        Newton solver options.
    decision:
        Optional early-termination rule; see :class:`DecisionSpec`.
    sample_mask:
        Optional boolean ``(batch,)``; False samples are excluded from
        the integration entirely (frozen at the initial state).
    guess_trajectory:
        Per-step full node vectors from an earlier, nearby run (e.g. the
        previous bisection iteration's ``TransientResult.states``).  At
        each step the unknown nodes of still-active samples are seeded
        with the trajectory's step-to-step increment applied to the
        current previous state (``v_prev + traj[k] - traj[k-1]``), so
        the recorded run's knowledge of upcoming waveform edges carries
        over without importing its absolute levels.  Seeds apply only to
        samples whose previous state lies within ``guess_gate`` of the
        trajectory's — a trajectory that latched to the opposite
        decision is rejected per sample rather than derailing Newton.
        Changes only the Newton starting point; results agree with the
        cold start to solver tolerance.
    guess_gate:
        Per-sample alignment gate [V] for ``guess_trajectory`` seeds.
    extrapolate:
        Seed samples without an accepted trajectory seed by linear
        extrapolation from the previous two accepted points
        (``2 v_prev - v_prev2``) instead of holding ``v_prev``.  Like
        trajectory seeding this moves only the Newton starting point;
        smooth segments then converge in one iteration.
    record_states:
        Record the accepted full node vectors in
        :attr:`TransientResult.states` for use as a later
        ``guess_trajectory``.
    backend:
        Solver backend for the per-step Newton solve — a registered
        name, a :class:`~repro.spice.backends.base.SolverBackend`
        instance, or ``None`` for environment/default resolution
        (``REPRO_BACKEND``, else ``compiled``; see
        :mod:`repro.spice.backends`).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_stop <= t_start:
        raise ValueError("t_stop must exceed t_start")

    n_steps = int(round((t_stop - t_start) / dt))
    times = t_start + dt * np.arange(n_steps + 1)

    if initial_state is not None:
        v_prev = np.array(initial_state, dtype=float)
        system.apply_known(v_prev, t_start)
    else:
        v_prev = system.initial_full_vector(t_start, initial)

    batch = v_prev.shape[0]
    active = np.ones(batch, dtype=bool)
    if sample_mask is not None:
        active &= np.asarray(sample_mask, dtype=bool)
    decided = np.zeros(batch, dtype=bool) if decision is not None else None
    if decision is not None:
        diff_a = system.node_index[decision.node_a]
        diff_b = system.node_index[decision.node_b]

    table = _build_known_table(system, times)
    known = system.known_idx
    unknown = system.unknown_idx
    # The kernel's step is the grid's own spacing, not the ``dt``
    # argument (the two differ by rounding when ``t_start`` is not 0).
    grid_dt = float(times[1] - times[0]) if n_steps >= 1 else 0.0
    kernel = resolve_backend(backend).step_kernel(
        system, system.c_matrix / dt, grid_dt, batch, options)

    probe_cols = {p: system._index_of(p) for p in probes}
    fused = kernel.fused_transient()
    if fused is not None:
        return _run_fused(fused, system, times, n_steps, v_prev, batch,
                          active, decided, decision, table, probe_cols,
                          guess_trajectory, guess_gate, extrapolate,
                          record_states)
    probe_buf = {p: np.empty((n_steps + 1, batch)) for p in probes}
    for node, index in probe_cols.items():
        probe_buf[node][0] = v_prev[:, index]

    states: Optional[np.ndarray] = None
    if record_states:
        ring = None
        states = np.empty((n_steps + 1,) + v_prev.shape)
        states[0] = v_prev
    else:
        # Trajectory consumers hold references, so the ring only runs
        # when states are not recorded.
        ring = [v_prev, np.empty_like(v_prev), np.empty_like(v_prev)]
        ring_i = 0
    v_prev2: Optional[np.ndarray] = None
    total_newton = 0
    steps_run = 0
    sample_steps = 0

    PERF.count("transient.runs")

    active_idx = np.nonzero(active)[0]
    for step in range(1, n_steps + 1):
        if not active_idx.size:
            break
        t_new = times[step]
        plain = guess_trajectory is None or step >= len(guess_trajectory)
        if ring is None:
            v_new = states[step]
            np.copyto(v_new, v_prev)
        elif plain and extrapolate and v_prev2 is not None:
            # Full-width extrapolated guess: non-active rows are written
            # too, but they are restored from ``v_prev`` right after the
            # solve (before any read), and the known columns are reset
            # from the table below — the values Newton sees per active
            # unknown are bit-identical to the sliced update.
            v_new = ring[(ring_i + 1) % 3]
            np.multiply(v_prev, 2.0, out=v_new)
            np.subtract(v_new, v_prev2, out=v_new)
        else:
            v_new = ring[(ring_i + 1) % 3]
            np.copyto(v_new, v_prev)
        v_new[:, known] = table[step]

        if not plain:
            traj_now = guess_trajectory[step]
            traj_before = guess_trajectory[step - 1]
            rows_u = active_idx[:, None], unknown[None, :]
            seeded = np.max(np.abs(traj_before[rows_u] - v_prev[rows_u]),
                            axis=-1) <= guess_gate
            seed_rows = active_idx[seeded]
            if seed_rows.size:
                su = seed_rows[:, None], unknown[None, :]
                v_new[su] = v_prev[su] + (traj_now[su] - traj_before[su])
            PERF.count("transient.warm_seeds", int(seed_rows.size))
            PERF.count("transient.warm_rejects",
                       int(active_idx.size - seed_rows.size))
            if extrapolate and v_prev2 is not None and not seeded.all():
                rows = active_idx[~seeded]
                ru = rows[:, None], unknown[None, :]
                v_new[ru] = 2.0 * v_prev[ru] - v_prev2[ru]
        elif ring is None and extrapolate and v_prev2 is not None:
            ru = active_idx[:, None], unknown[None, :]
            v_new[ru] = 2.0 * v_prev[ru] - v_prev2[ru]

        kernel.begin_step(t_new, v_prev)
        total_newton += kernel.solve(v_new, active_idx)
        if active_idx.size != batch:
            v_new[~active] = v_prev[~active]
        v_prev2 = v_prev
        v_prev = v_new
        if ring is not None:
            ring_i = (ring_i + 1) % 3
        for node, index in probe_cols.items():
            probe_buf[node][step] = v_prev[:, index]
        steps_run = step
        sample_steps += active_idx.size

        if decision is not None and t_new >= decision.t_min:
            differential = v_new[:, diff_a] - v_new[:, diff_b]
            newly = active & (np.abs(differential) >= decision.threshold)
            if newly.any():
                decided |= newly
                active &= ~newly
                active_idx = np.nonzero(active)[0]

    PERF.count("transient.steps", steps_run)
    PERF.count("transient.sample_steps", sample_steps)
    PERF.count("transient.sample_steps_saved", batch * n_steps - sample_steps)
    if decided is not None:
        PERF.count("transient.samples_decided_early", int(decided.sum()))

    voltages = {node: probe_buf[node][:steps_run + 1] for node in probes}
    return TransientResult(times=times[:steps_run + 1], voltages=voltages,
                           final=v_prev, newton_iterations=total_newton,
                           decided=decided,
                           states=None if states is None
                           else states[:steps_run + 1])


def _build_known_table(system: MnaSystem, times: np.ndarray) -> np.ndarray:
    """Known-node voltages for a whole time grid in one vectorised pass.

    Returns ``(n_times, batch, n_known)`` ordered like
    ``system.known_idx``.  Sources are visited in netlist order (later
    sources overwrite, exactly like :meth:`MnaSystem.apply_known`) and
    each waveform is evaluated over the full grid with
    :meth:`Waveform.values`, whose elements are bit-identical to
    per-step scalar ``value()`` calls.  A source
    driving ground is skipped: ground is not a known column and is
    pinned to 0 V by construction.
    """
    batch = system.batch_size
    known = system.known_idx
    table = np.zeros((times.shape[0], batch, known.size))
    position = {int(index): column for column, index in enumerate(known)}
    for source in system.circuit.vsources:
        column = position.get(system.node_index[source.node])
        if column is None:
            continue
        values = np.asarray(source.waveform.values(times), dtype=float)
        table[:, :, column] = values if values.ndim == 2 else values[:, None]
    PERF.count("transient.known_table_builds")
    return table


class _ReducedStepper:
    """Reusable backward-Euler kernel on the unknown-node block.

    One instance serves every step of a run (the loop just updates
    ``t_new``/``v_prev``), and its buffers serve every Newton
    iteration.  The capacitive term is a full-width ``dv @
    c_over_dt.T`` matmul gathered to the unknown block, and the
    precompiled ``c_over_dt_uu`` block is added to the reduced
    Jacobian.  This is the numpy backend's step kernel, the reference
    the compiled kernels are checked against.
    """

    reduced = True

    def __init__(self, system: MnaSystem, c_over_dt: np.ndarray,
                 batch: int) -> None:
        self.system = system
        self._c_over_dt_T = c_over_dt.T
        u = system.unknown_idx
        self._u = u
        self.c_over_dt_uu = c_over_dt[np.ix_(u, u)].copy()
        n = system.n_nodes
        self._vp_rows = np.empty((batch, n))
        self._dv = np.empty((batch, n))
        self._cap = np.empty((batch, n))
        self._cap_u = np.empty((batch, u.size))
        self.t_new = 0.0
        self.v_prev: Optional[np.ndarray] = None

    def __call__(self, v, rows):
        b = v.shape[0]
        f_u, jac_uu = self.system.reduced_residual_jacobian(
            v, self.t_new, active=rows)
        if b == self.v_prev.shape[0]:
            vp = self.v_prev  # rows is sorted+unique: full size == all
        else:
            vp = self.v_prev.take(rows, axis=0, out=self._vp_rows[:b])
        dv = np.subtract(v, vp, out=self._dv[:b])
        cap = np.matmul(dv, self._c_over_dt_T, out=self._cap[:b])
        f_u += cap.take(self._u, axis=1, out=self._cap_u[:b])
        jac_uu += self.c_over_dt_uu
        return f_u, jac_uu


def _run_fused(fused, system: MnaSystem, times: np.ndarray, n_steps: int,
               v_prev: np.ndarray, batch: int, active: np.ndarray,
               decided: Optional[np.ndarray],
               decision: Optional[DecisionSpec], table: np.ndarray,
               probe_cols: Dict[str, int],
               guess_trajectory: Optional[Sequence[np.ndarray]],
               guess_gate: float, extrapolate: bool,
               record_states: bool) -> TransientResult:
    """:func:`run_transient`'s loop through a kernel's fused runner."""
    rule = None
    if decision is not None:
        late = np.nonzero(times[1:] >= decision.t_min)[0]
        rule = (system.node_index[decision.node_a],
                system.node_index[decision.node_b],
                int(late[0]) + 1 if late.size else n_steps + 1,
                decision.threshold)
    PERF.count("transient.runs")
    run = fused(times, v_prev, table, active, rule,
                list(probe_cols.values()), guess_trajectory, guess_gate,
                extrapolate, record_states)
    steps_run = run.steps
    PERF.count("transient.steps", steps_run)
    PERF.count("transient.sample_steps", run.sample_steps)
    PERF.count("transient.sample_steps_saved",
               batch * n_steps - run.sample_steps)
    if decided is not None:
        decided |= run.decided
        PERF.count("transient.samples_decided_early", int(decided.sum()))
    voltages = {node: run.probes[i, :steps_run + 1]
                for i, node in enumerate(probe_cols)}
    return TransientResult(
        times=times[:steps_run + 1], voltages=voltages,
        final=run.hist[steps_run % run.hist.shape[0]],
        newton_iterations=run.iterations, decided=decided,
        states=run.hist[:steps_run + 1] if record_states else None)
