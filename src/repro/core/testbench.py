"""Sense-amplifier read-operation testbench.

Wraps a :class:`~repro.circuits.sense_amp.SenseAmpDesign` together with
an environmental corner and a compiled :class:`~repro.spice.mna.MnaSystem`
so characterisation code can fire batched read operations and measure:

* the **resolution sign** (which way the latch fell) — the primitive
  under the binary-search offset extraction, and
* the **sensing delay** — SAenable at 50 % Vdd to the rising output at
  50 % Vdd, exactly the paper's definition.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.perf import PERF
from ..circuits.sense_amp import (ReadTiming, SenseAmpDesign,
                                  apply_waveforms)
from ..models.temperature import Environment
from ..spice.backends import resolve_backend
from ..spice.backends.base import SolverBackend
from ..spice.mna import MnaSystem
from ..spice.measure import crossing_time, final_sign
from ..spice.solver import NewtonOptions
from ..spice.transient import DecisionSpec, TransientResult, run_transient

#: Baseline probe set for read operations on the Figure-1/2 designs.
READ_PROBES = ("s", "sbar", "out", "outbar", "saen")

#: Fraction of Vdd the internal differential must reach before a sample
#: counts as decided (early-decision fast path).  Decisions are only
#: checked after the enable rise completes (``t_min``), by which point
#: the input-driven develop residue has collapsed: across the paper's
#: corners and the full +-0.25 V search range the worst wrong-sign
#: excursion after ``t_min`` stays below 55 mV, so 0.15 Vdd (135 mV at
#: the lowest 0.9 V corner) keeps a ~2.5x margin while letting decided
#: samples drop out of the integration early.
DECISION_THRESHOLD_FRAC = 0.15

#: Output-differential fraction of Vdd past which a delay transient may
#: freeze a sample.  The losing output can undershoot below ground by a
#: few tens of mV, so the threshold keeps a 0.1 Vdd guard above the
#: 0.5 Vdd measurement level: |out - outbar| >= 0.6 Vdd guarantees the
#: winning output has already risen through 50 % Vdd and its crossing
#: time is on record.
DELAY_DECISION_FRAC = 0.6

#: Per-sample alignment gate [V] for trajectory seeds: a sign read
#: seeds a sample's Newton guesses from the previous read's recorded
#: trajectory only while the two states lie within this distance, so a
#: trajectory that latched the other way is rejected per sample.
GUESS_GATE = 0.2

#: Ceiling on the sample-steps (time steps x samples) of one transient
#: batch.  Each costs ~200 B of known-column table, state ring and
#: probes, so this is ~1 GB; a 1e-18 s step would ask for far more.
MAX_BATCH_SAMPLE_STEPS = 1 << 22

#: Default one-hot Vth perturbation [V]; large enough to dominate the
#: bisection resolution, small enough to stay in the linear regime.
PERTURBATION_DEFAULT = 0.02

#: Transient Newton ``vtol`` multiplier.  Trajectory seeds and
#: extrapolated guesses move Newton's starting point, so the transient
#: solves run under a tightened tolerance; results then agree with a
#: cold start to within the documented tolerance contract (see
#: docs/simulator.md).
VTOL_FACTOR = 0.1


def check_batch_steps(samples: int, timing: ReadTiming) -> None:
    """Refuse a batch of ``samples`` whose full read window at
    ``timing.dt`` would pass :data:`MAX_BATCH_SAMPLE_STEPS`."""
    steps = math.ceil(timing.t_window / timing.dt)
    if steps * samples > MAX_BATCH_SAMPLE_STEPS:
        raise ValueError(
            f"dt={timing.dt:g} s gives {steps} steps x {samples} samples "
            f"per transient batch, past the {MAX_BATCH_SAMPLE_STEPS} "
            f"sample-step ceiling; raise dt or lower chunk_size")


def default_probes(design: SenseAmpDesign) -> Tuple[str, ...]:
    """Internal nodes plus the design's declared outputs."""
    probes = ["s", "sbar"]
    probes.extend(n for n in design.output_nodes if n not in probes)
    return tuple(probes)


class SenseAmpTestbench:
    """Batched read-operation driver for one SA design at one corner.

    Repeated solves start warm: every transient starts from one cached
    pre-read state, each sign read seeds its Newton guesses per time
    step from the previous sign read's recorded trajectory (gated by
    :data:`GUESS_GATE`), and steps without a seed extrapolate linearly
    from the previous two accepted points.  The transient Newton
    ``vtol`` is tightened by :data:`VTOL_FACTOR` to match.

    Parameters
    ----------
    design:
        The sense amplifier (NSSA or ISSA).
    env:
        Environmental corner (temperature, Vdd).
    batch_size:
        Monte-Carlo population size.
    timing:
        Read-operation timing.
    newton:
        Newton solver options for the transient engine.
    early_decision:
        Stop sign-resolution transients as soon as every sample's latch
        decision is irreversible (see :class:`DecisionSpec`); the
        measured offsets are unchanged because only the post-decision
        tail of the waveform is skipped.
    backend:
        Solver backend for the transient hot loop — a name, a
        :class:`~repro.spice.backends.base.SolverBackend` instance, or
        ``None`` for environment/default resolution
        (:func:`repro.spice.backends.resolve_backend`).
    """

    def __init__(self, design: SenseAmpDesign, env: Environment,
                 batch_size: int = 1,
                 timing: ReadTiming = ReadTiming(),
                 newton: NewtonOptions = NewtonOptions(),
                 early_decision: bool = True,
                 backend: Union["SolverBackend", str, None] = None) -> None:
        self.design = design
        self.env = env
        self.timing = timing
        self.newton = newton
        self.early_decision = early_decision
        #: Solver backend driving every transient of this bench
        #: (resolved once, so a mid-run environment change cannot split
        #: a characterisation across backends).
        self.backend = resolve_backend(backend)
        self._transient_newton = dataclasses.replace(
            newton, vtol=newton.vtol * VTOL_FACTOR)
        self.system = MnaSystem(design.circuit, env.temperature_k,
                                batch_size=batch_size)
        self._initial_template: Optional[np.ndarray] = None
        self._trajectories: Dict[Tuple, np.ndarray] = {}
        # Stacked 2x-batch sibling system for fused endpoint transients
        # (see resolve_sign_pair); built on first use, shift-synced
        # lazily via the stale flag.
        self._fused_system: Optional[MnaSystem] = None
        self._fused_template: Optional[np.ndarray] = None
        self._fused_shifts_stale = True

    @property
    def batch_size(self) -> int:
        return self.system.batch_size

    def _initial_state(self) -> np.ndarray:
        """Shared pre-read state vector (the read's operating point).

        Built once and reused by every transient of a characterisation
        run — all 14+ bisection iterations start from the same
        precharge state, so there is no reason to reassemble it per
        call.  ``run_transient`` copies it and re-applies the current
        source waveforms at t=0, so per-call bitline levels still take
        effect.  Caching the template is bit-identical to rebuilding it
        (the unknown-node initial conditions do not depend on the read
        input).
        """
        if self._initial_template is None:
            self._initial_template = self.system.initial_full_vector(
                0.0, self.design.initial_conditions(self.env.vdd))
        return self._initial_template

    def decision_spec(self) -> DecisionSpec:
        """Early-decision rule for this corner's sign-resolution reads."""
        return DecisionSpec(
            "s", "sbar",
            threshold=DECISION_THRESHOLD_FRAC * self.env.vdd,
            t_min=self.timing.t_develop + self.timing.t_rise)

    # -- configuration ---------------------------------------------------

    def set_vth_shifts(self, shifts: Mapping[str,
                                             Union[float, np.ndarray]],
                       ) -> None:
        """Install per-device threshold shifts (mismatch + aging)."""
        self.system.set_vth_shifts(dict(shifts))
        # Recorded trajectories belong to the previous device
        # population; drop them rather than seed across populations.
        self.forget_trajectories()
        self._fused_shifts_stale = True

    def clear_vth_shifts(self) -> None:
        self.system.clear_vth_shifts()
        self.forget_trajectories()
        self._fused_shifts_stale = True

    def forget_trajectories(self) -> None:
        """Drop the recorded sign-read trajectories (and their memory).

        The next sign read of each kind starts unseeded.
        """
        self._trajectories.clear()

    # -- simulation ------------------------------------------------------

    def run_read(self, vin: Union[float, np.ndarray],
                 swapped: bool = False,
                 probes: Optional[Sequence[str]] = None,
                 t_window: Optional[float] = None,
                 decision: Optional[DecisionSpec] = None,
                 sample_mask: Optional[np.ndarray] = None,
                 guess_trajectory: Optional[np.ndarray] = None,
                 record_states: bool = False,
                 ) -> TransientResult:
        """Simulate one read with differential input ``vin``.

        ``vin`` may be an array of shape ``(batch_size,)`` to give every
        Monte-Carlo sample its own input (binary search).  ``t_window``
        optionally shortens the simulated window (offset extraction only
        needs the latch decision, not the full output settling).
        ``decision`` enables early termination once samples latch;
        ``sample_mask`` excludes samples from the integration entirely
        (e.g. bisection samples already flagged out-of-range).
        ``guess_trajectory``/``record_states`` thread warm-start
        trajectories through to :func:`run_transient`; steps without a
        trajectory seed extrapolate from the previous two points.
        """
        if probes is None:
            probes = default_probes(self.design)
        waveforms = self.design.read_waveforms(vin, self.env.vdd,
                                               self.timing, swapped=swapped)
        apply_waveforms(self.design, waveforms)
        window = self.timing.t_window if t_window is None else t_window
        return run_transient(self.system, window, self.timing.dt,
                             probes=probes,
                             initial_state=self._initial_state(),
                             options=self._transient_newton,
                             decision=decision,
                             sample_mask=sample_mask,
                             guess_trajectory=guess_trajectory,
                             guess_gate=GUESS_GATE,
                             extrapolate=True,
                             record_states=record_states,
                             backend=self.backend)

    def resolve_sign(self, vin: Union[float, np.ndarray],
                     swapped: bool = False,
                     t_window: Optional[float] = None,
                     sample_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Latch decision per sample: +1 (S high, read 1) or -1.

        The decision is read from the internal differential at the end
        of a (possibly shortened) window; regeneration is exponential,
        so the sign is fixed long before full swing — with
        ``early_decision`` the run stops as soon as every (unmasked)
        sample has latched past the decision threshold.  The read is
        seeded from, and then replaces, the trajectory recorded by the
        previous sign read of the same ``(swapped, t_window)`` kind.
        """
        decision = self.decision_spec() if self.early_decision else None
        slot = ("sign", swapped, t_window)
        result = self.run_read(
            vin, swapped=swapped, probes=("s", "sbar"),
            t_window=t_window, decision=decision,
            sample_mask=sample_mask,
            guess_trajectory=self._trajectories.get(slot),
            record_states=True)
        self._trajectories[slot] = result.states
        return final_sign(result.differential("s", "sbar"))

    def _fused(self) -> MnaSystem:
        """The 2x-batch sibling system used by fused endpoint reads.

        Shares the live netlist with ``self.system`` (waveform swaps
        apply to both); the per-device Vth shifts are tiled
        ``(shift, shift)`` so rows ``[:batch]`` and ``[batch:]`` of the
        stacked run carry the same device population as the base batch.
        """
        if self._fused_system is None:
            self._fused_system = MnaSystem(self.design.circuit,
                                           self.env.temperature_k,
                                           batch_size=2 * self.batch_size)
        if self._fused_shifts_stale:
            tiled = {}
            for name, shift in self.system.vth_shifts().items():
                if isinstance(shift, np.ndarray) and shift.ndim:
                    tiled[name] = np.concatenate((shift, shift))
                else:
                    tiled[name] = shift
            self._fused_system.set_vth_shifts(tiled)
            self._fused_shifts_stale = False
        return self._fused_system

    def resolve_sign_pair(self, vin_hi: Union[float, np.ndarray],
                          vin_lo: Union[float, np.ndarray],
                          swapped: bool = False,
                          t_window: Optional[float] = None,
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Both endpoint latch decisions from one stacked 2x-batch read.

        Equivalent to ``(resolve_sign(vin_hi), resolve_sign(vin_lo))``
        but pays the transient overhead (known-table build, stepper
        setup, per-step Python) once, and the doubled Newton batch keeps
        the dense kernels in their efficient regime.  The recorded
        states of the ``vin_lo`` half seed the first bisection read,
        mirroring the sequential path where the lo endpoint is the last
        trajectory recorded before bisection starts.
        """
        batch = self.batch_size
        hi = np.broadcast_to(np.asarray(vin_hi, dtype=float), (batch,))
        lo = np.broadcast_to(np.asarray(vin_lo, dtype=float), (batch,))
        vin = np.concatenate((hi, lo))
        system = self._fused()
        waveforms = self.design.read_waveforms(vin, self.env.vdd,
                                               self.timing, swapped=swapped)
        apply_waveforms(self.design, waveforms)
        if self._fused_template is None:
            self._fused_template = system.initial_full_vector(
                0.0, self.design.initial_conditions(self.env.vdd))
        window = self.timing.t_window if t_window is None else t_window
        PERF.count("offset.endpoint_fused_runs")
        result = run_transient(
            system, window, self.timing.dt, probes=("s", "sbar"),
            initial_state=self._fused_template,
            options=self._transient_newton,
            decision=self.decision_spec() if self.early_decision else None,
            extrapolate=True,
            record_states=True,
            backend=self.backend)
        self._trajectories[("sign", swapped, t_window)] = \
            result.states[:, batch:]
        sign = final_sign(result.differential("s", "sbar"))
        return sign[:batch], sign[batch:]

    def sensing_delay(self, vin: Union[float, np.ndarray],
                      swapped: bool = False) -> np.ndarray:
        """Sensing delay per sample [s], per the paper's definition.

        Time from SAenable crossing 50 % Vdd (rising) to whichever
        output (``out``/``outbar``) rises through 50 % Vdd.

        With ``early_decision`` a sample freezes once its output
        differential exceeds :data:`DELAY_DECISION_FRAC` of Vdd — by
        then the measured crossing is already recorded, so the delay is
        unchanged; only the post-swing tail of the window is skipped.
        """
        decision = None
        if self.early_decision:
            out_a, out_b = self.design.output_nodes
            decision = DecisionSpec(
                out_a, out_b,
                threshold=DELAY_DECISION_FRAC * self.env.vdd,
                t_min=self.timing.t_enable_mid)
        result = self.run_read(vin, swapped=swapped, decision=decision)
        half = 0.5 * self.env.vdd
        t_trigger = self.timing.t_enable_mid
        out_a, out_b = self.design.output_nodes
        t_out = crossing_time(result.times, result.probe(out_a), half,
                              rising=True, t_min=t_trigger)
        t_outbar = crossing_time(result.times, result.probe(out_b), half,
                                 rising=True, t_min=t_trigger)
        return np.fmin(t_out, t_outbar) - t_trigger


def perturbation_bench(design: SenseAmpDesign, env: Environment,
                       devices: Sequence[str],
                       perturbation: float = PERTURBATION_DEFAULT,
                       **bench_kwargs) -> SenseAmpTestbench:
    """A ``1 + len(devices)``-sample bench of one-hot Vth shifts.

    Sample 0 is unshifted; sample ``i + 1`` shifts ``devices[i]`` alone
    by ``+perturbation``, so one batched measurement gives every
    device's first-order sensitivity.  ``bench_kwargs`` go to
    :class:`SenseAmpTestbench`.
    """
    batch = len(devices) + 1
    bench = SenseAmpTestbench(design, env, batch_size=batch,
                              **bench_kwargs)
    shifts = {}
    for index, name in enumerate(devices):
        shifts[name] = np.zeros(batch)
        shifts[name][index + 1] = perturbation
    bench.set_vth_shifts(shifts)
    return bench
