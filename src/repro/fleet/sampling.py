"""Block sampling and evaluation for the fleet aging engine.

The fleet engine evaluates a population of sense-amplifier instances in
*sampling blocks* of ``FleetSpec.block_size`` devices.  Everything
random about a block comes from spawn-keyed RNG lanes
(:func:`repro.models.variation.keyed_rng`), one generator per
``(seed, FLEET_STREAM, lane, policy, block)`` key, so the draws a device
receives depend only on the spec (and, for the trap lane, the policy) —
never on chunk boundaries, worker count or evaluation order.

:func:`evaluate_block` evaluates those draws with every closed form
(activated-trap counts, CET occupancy propagation, per-trap impacts,
offset assembly) vectorised across the whole block's trap population.
It applies the elementwise kernels of the public
:func:`repro.aging.occupancy.ac_occupancy` to the same values in the
same order per trap, and sums each device's traps with ``np.bincount``,
which accumulates sequentially in element order, over slices of whole
devices so that no device's sum is ever split; so its offsets are
**bitwise identical** to chaining ``ac_occupancy`` one device at a
time (``tests/fleet`` pins this on one block's draws, and
``tests/golden`` pins a whole fleet document).

Per-device physics
------------------
Each device instance is one latch NMOS pair (``Mdown`` stressed by
0-reads, ``MdownBar`` by 1-reads — the offset-dominant pair of the
paper's NSSA).  A device draws a workload, a temperature and a supply
once (fixed corner), then streams its lifetime as trace phases: per
phase the empirical read mix is a Binomial draw over
``reads_per_phase`` reads, mapped through the policy (ISSA balancing,
rejuvenation parking) to duty factors, and trap occupancies propagate
through the duty-cycled master equation with ``p_initial`` chaining.
At each checkpoint year the offset is
``sens * (dVth(Mdown) - dVth(MdownBar))`` plus the time-zero mismatch
of the pair.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

import numpy as np

from ..aging.cet import CetMap
from ..circuits.sense_amp import RATIO_DOWN
from ..constants import BOLTZMANN_EV, T0, VDD_NOM
from ..core.calibration import PBTI_PARAMS
from ..core.mitigation import (NMOS_PAIR_SENSITIVITY,
                               NMOS_PAIR_SENSITIVITY_TC)
from ..models.ptm45 import gate_area
from ..models.variation import MismatchModel, keyed_rng
from ..spice.backends.compiled import cpu_slots
from .spec import FLEET_STREAM, FleetSpec, MitigationPolicy

#: RNG lane identifiers within ``FLEET_STREAM``.
LANE_MISMATCH = 1   # time-zero Vth mismatch of the latch pair
LANE_ENV = 2        # workload / temperature / supply assignment
LANE_TRACE = 3      # per-phase empirical read mixes (policy-independent)
LANE_TRAPS = 4      # trap counts, CET times, occupancy coins, impacts

#: Gate area of one latch NMOS [m^2].
_AREA = gate_area(RATIO_DOWN)

_BTI = PBTI_PARAMS

#: Offset histogram: 0.1 mV bins up to 200 mV (+1 overflow bin).
HIST_BINS = 2001
_HIST_SCALE = 1e4  # |V| -> 0.1 mV bin index


def policy_lane_key(policy: MitigationPolicy) -> int:
    """Stable integer folding a policy into the trap-lane spawn key.

    Only the fields that change the *stress seen by the traps* enter the
    key: guardband trimming re-reads the same offsets against a tighter
    swing and must not perturb any draw (so trim-only policy variants
    stay perfectly correlated with their baseline).
    """
    doc = {"scheme": policy.scheme,
           "residual_imbalance": policy.residual_imbalance,
           "rejuvenation_interval_years": policy.rejuvenation_interval_years,
           "rejuvenation_phases": policy.rejuvenation_phases}
    blob = json.dumps(doc, sort_keys=True).encode("ascii")
    return zlib.crc32(blob)


def _normalised_cdf(pairs) -> Tuple[np.ndarray, np.ndarray]:
    values = np.asarray([v for v, _ in pairs], dtype=float)
    weights = np.asarray([w for _, w in pairs], dtype=float)
    return values, np.cumsum(weights) / weights.sum()


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1)


@dataclasses.dataclass
class _TrapLane:
    """Policy-keyed trap population of one transistor in one block."""

    counts: np.ndarray     # (B,) activated traps per device
    owner: np.ndarray      # (total,) trap -> device index within block
    starts: np.ndarray     # (B+1,) slice bounds per device
    tau_c_eff: np.ndarray  # (total,) capture time / corner acceleration
    tau_e: np.ndarray      # (total,)
    u_occ: np.ndarray      # (total,) occupancy coin, shared by checkpoints
    eta: np.ndarray        # (total,) per-trap impact [V]


@dataclasses.dataclass
class BlockDraws:
    """Everything random or device-dependent about one sampling block.

    Computed once per (spec, policy, block) by :func:`block_draws` and
    consumed unchanged by :func:`evaluate_block`.
    """

    start: int
    stop: int
    w_idx: np.ndarray       # (B,) workload index per device
    sens: np.ndarray        # (B,) corner offset sensitivity
    offset0: np.ndarray     # (B,) time-zero pair offset [V]
    duty_down: np.ndarray   # (P, B) Mdown duty per phase
    duty_downbar: np.ndarray
    down: _TrapLane
    downbar: _TrapLane

    @property
    def size(self) -> int:
        return self.stop - self.start


def _trap_lane(rng: np.random.Generator, lam: np.ndarray,
               accel: np.ndarray, eta_mean: np.ndarray,
               cet: CetMap) -> _TrapLane:
    """Draw one transistor's trap population (fixed draw order)."""
    counts = rng.poisson(lam)
    total = int(counts.sum())
    owner = np.repeat(np.arange(counts.size), counts)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    tau_c0, tau_e = cet.sample(total, rng, 1.0)
    u_occ = rng.random(total)
    eta = rng.standard_exponential(total) * eta_mean[owner]
    return _TrapLane(counts=counts, owner=owner, starts=starts,
                     tau_c_eff=tau_c0 / accel[owner], tau_e=tau_e,
                     u_occ=u_occ, eta=eta)


def block_draws(spec: FleetSpec, policy: MitigationPolicy,
                block: int) -> BlockDraws:
    """Sample one block's devices, corners, traces and trap populations."""
    start, stop = spec.block_bounds(block)
    n = stop - start
    seed = spec.seed

    # Lane 1: time-zero mismatch of the latch pair.
    rng = keyed_rng(seed, FLEET_STREAM, LANE_MISMATCH, 0, block)
    sigma = MismatchModel().sigma_vth(RATIO_DOWN)
    vt = rng.standard_normal((2, n)) * sigma

    # Lane 2: workload / temperature / supply assignment.
    rng = keyed_rng(seed, FLEET_STREAM, LANE_ENV, 0, block)
    u = rng.random((3, n))
    w_names, w_cdf = _normalised_cdf(
        [(i, w) for i, (_, w) in enumerate(spec.workloads)])
    t_vals, t_cdf = _normalised_cdf(spec.temps_c)
    v_vals, v_cdf = _normalised_cdf(spec.vdds)
    w_idx = _pick(w_cdf, u[0]).astype(np.int64)
    temp_c = t_vals[_pick(t_cdf, u[1])]
    vdd = v_vals[_pick(v_cdf, u[2])]

    # Lane 3: per-phase empirical read mixes (common random numbers
    # across policies — every policy sees the same workload traces).
    from ..workloads import paper_workload
    loads = [paper_workload(name) for name, _ in spec.workloads]
    activation = np.asarray([w.activation_rate for w in loads])[w_idx]
    f0 = np.asarray([w.zero_fraction for w in loads])[w_idx]
    rng = keyed_rng(seed, FLEET_STREAM, LANE_TRACE, 0, block)
    phases = spec.n_phases
    hits = rng.binomial(spec.reads_per_phase,
                        np.broadcast_to(f0, (phases, n)))
    f0_hat = hits / float(spec.reads_per_phase)

    # Policy-mapped duty factors per phase.
    if policy.scheme == "issa":
        f_int = 0.5 + policy.residual_imbalance * (f0_hat - 0.5)
    else:
        f_int = f0_hat
    duty_down = activation * f_int
    duty_downbar = activation * (1.0 - f_int)
    if policy.rejuvenation_interval_years > 0.0:
        period = max(int(round(policy.rejuvenation_interval_years
                               * spec.phases_per_year)), 1)
        phase_idx = np.arange(phases)
        parked = (phase_idx % period) >= period - policy.rejuvenation_phases
        keep = np.where(parked, 0.0, 1.0)[:, None]
        duty_down = duty_down * keep
        duty_downbar = duty_downbar * keep

    # Corner acceleration factors (vectorised AtomisticBti closed forms).
    temp_k = temp_c + 273.15
    af = np.exp(_BTI.ea_ev / BOLTZMANN_EV * (1.0 / T0 - 1.0 / temp_k))
    af_capture = np.exp(_BTI.ea_capture_ev / BOLTZMANN_EV
                        * (1.0 / T0 - 1.0 / temp_k))
    activation_factor = (af ** (1.0 + _BTI.variance_tempering)
                         * np.exp(_BTI.gamma_v * (vdd - VDD_NOM)))
    accel = af_capture * np.exp(_BTI.gamma_capture * (vdd - VDD_NOM))
    eta_mean = (_BTI.eta0 / _AREA) / af ** _BTI.variance_tempering
    base = _BTI.density0 * _AREA * activation_factor
    peak_down = np.maximum(duty_down.max(axis=0), 1e-12)
    peak_downbar = np.maximum(duty_downbar.max(axis=0), 1e-12)
    lam_down = base * peak_down ** _BTI.duty_exponent
    lam_downbar = base * peak_downbar ** _BTI.duty_exponent

    # Lane 4: trap populations (policy-keyed; strict draw order).
    rng = keyed_rng(seed, FLEET_STREAM, LANE_TRAPS,
                    policy_lane_key(policy), block)
    down = _trap_lane(rng, lam_down, accel, eta_mean, _BTI.cet)
    downbar = _trap_lane(rng, lam_downbar, accel, eta_mean, _BTI.cet)

    sens = (NMOS_PAIR_SENSITIVITY
            + NMOS_PAIR_SENSITIVITY_TC * (temp_c - 25.0))
    offset0 = sens * (vt[0] - vt[1])

    return BlockDraws(start=start, stop=stop, w_idx=w_idx, sens=sens,
                      offset0=offset0, duty_down=duty_down,
                      duty_downbar=duty_downbar, down=down,
                      downbar=downbar)


# -- occupancy propagation ----------------------------------------------
#
# The vector walk replays the duty-cycled master-equation step of
# ``aging.occupancy.ac_occupancy`` in-place over a lane's trap arrays:
#
#     k_c = duty / tau_c;  k_e = 1 / tau_e
#     P'  = P_inf + (P - P_inf) * exp(-(k_c + k_e) * t)
#
# Numpy elementwise kernels are value-deterministic regardless of array
# length, offset or calling thread, so this agrees bitwise with calling
# ``ac_occupancy`` on one device's trap slice at a time (pinned by
# tests) however the traps are sliced and whichever thread walks them.

#: ``np.exp(-x)`` is exactly ``0.0`` for ``x >= 746`` (beyond the
#: subnormal range).  A trap whose emission rate alone satisfies
#: ``k_e * phase_s >= 746`` therefore has zero phase-to-phase memory —
#: its occupancy after *any* phase is exactly ``P_inf`` of that phase's
#: duty, bitwise equal to running the full recursion.  The vector path
#: skips per-phase propagation for these "fast" traps and evaluates
#: their steady state only at checkpoints.
FAST_TRAP_EXPONENT = 746.0

#: Live traps per slice of the occupancy walk.  A slice's five working
#: arrays (~650 kB) stay in cache while it marches through every phase;
#: a whole lane's (~10 MB) would stream from memory on every pass.
WALK_SLICE = 16384


def _lane_shifts_vector(lane: _TrapLane, duty: np.ndarray,
                        phase_s: float, checkpoints: Tuple[int, ...],
                        size: int) -> List[np.ndarray]:
    """Per-checkpoint dVth (size,) with all traps propagated at once.

    The lane's devices are cut into slices of whole devices holding
    about :data:`WALK_SLICE` live traps each (a device with more is
    never split).  Each slice is one task: it splits its traps into
    live and fast, walks the live ones through every phase and, at each
    checkpoint, sums its devices' occupied traps into their columns of
    the result.  Every device's traps stay in one slice in their
    original order, so each per-device ``bincount`` is the same
    sequential fold as over the whole lane.  Slices run on
    ``min(cpu_slots(), slices)`` threads (numpy releases the GIL inside
    the ufuncs); a pool worker or a service consumer holding a one-slot
    share runs them on its own thread.
    """
    k_e = 1.0 / lane.tau_e
    live = k_e * phase_s < FAST_TRAP_EXPONENT
    # Live traps ahead of each device boundary; cut at the first
    # boundary reaching each multiple of WALK_SLICE.
    live_before = np.searchsorted(np.flatnonzero(live), lane.starts)
    cuts = np.searchsorted(live_before, np.arange(
        WALK_SLICE, live_before[-1], WALK_SLICE))
    bounds = np.unique(np.concatenate(([0], cuts, [size]))).tolist()
    marks = {phase: mark for mark, phase in enumerate(checkpoints)}
    shifts = np.zeros((len(checkpoints), size))

    def run_slice(d0: int, d1: int) -> None:
        lo, hi = int(lane.starts[d0]), int(lane.starts[d1])
        owner = lane.owner[lo:hi] - d0
        tau_c, k_e_s = lane.tau_c_eff[lo:hi], k_e[lo:hi]
        u_occ, eta = lane.u_occ[lo:hi], lane.eta[lo:hi]
        idx_live = np.flatnonzero(live[lo:hi])
        idx_fast = np.flatnonzero(~live[lo:hi])
        owner_l, tc, ke = owner[idx_live], tau_c[idx_live], k_e_s[idx_live]
        owner_f, tc_f, ke_f = (owner[idx_fast], tau_c[idx_fast],
                               k_e_s[idx_fast])
        n = idx_live.size
        prob = np.zeros(n)
        g = np.empty(n)
        kc = np.empty(n)
        tot = np.empty(n)
        pinf = np.empty(n)
        prob_all = np.empty(hi - lo)
        for phase in range(duty.shape[0]):
            duty_s = duty[phase, d0:d1]
            # The in-place kernel sequence mirrors ac_occupancy exactly:
            # k_c = d/tau_c; tot = k_c + k_e; P_inf = k_c/tot;
            # decay = exp(-tot * t); P = P_inf + (P - P_inf) * decay.
            np.take(duty_s, owner_l, out=g)
            np.divide(g, tc, out=kc)
            np.add(kc, ke, out=tot)
            np.divide(kc, tot, out=pinf)
            np.negative(tot, out=tot)
            np.multiply(tot, phase_s, out=tot)
            np.exp(tot, out=tot)
            np.subtract(prob, pinf, out=prob)
            np.multiply(prob, tot, out=prob)
            np.add(prob, pinf, out=prob)
            mark = marks.get(phase + 1)
            if mark is not None:
                # Fast traps sit at this phase's steady state.
                kc_f = duty_s[owner_f] / tc_f
                prob_all[idx_live] = prob
                prob_all[idx_fast] = kc_f / (kc_f + ke_f)
                contrib = np.where(u_occ < prob_all, eta, 0.0)
                shifts[mark, d0:d1] = np.bincount(
                    owner, weights=contrib, minlength=d1 - d0)

    slices = list(zip(bounds, bounds[1:]))
    threads = min(cpu_slots(), len(slices))
    if threads <= 1:
        for d0, d1 in slices:
            run_slice(d0, d1)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(run_slice, d0, d1)
                           for d0, d1 in slices]:
                future.result()
    return list(shifts)


def evaluate_block(spec: FleetSpec, policy: MitigationPolicy,
                   block: int) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate one block: per-checkpoint offsets for every device.

    Returns ``(offsets, w_idx)`` with ``offsets`` of shape
    ``(len(spec.years), block devices)`` [V].
    """
    draws = block_draws(spec, policy, block)
    checkpoints = spec.checkpoint_phases()
    down = _lane_shifts_vector(draws.down, draws.duty_down, spec.phase_s,
                               checkpoints, draws.size)
    downbar = _lane_shifts_vector(draws.downbar, draws.duty_downbar,
                                  spec.phase_s, checkpoints, draws.size)
    offsets = np.stack([draws.offset0 + draws.sens * (d - dbar)
                        for d, dbar in zip(down, downbar)])
    return offsets, draws.w_idx


# -- per-block statistics ------------------------------------------------

def block_stats(spec: FleetSpec, policy: MitigationPolicy,
                offsets: np.ndarray, w_idx: np.ndarray) -> Dict:
    """Mergeable summary statistics of one evaluated block.

    All reductions here run over a single block's arrays, which are
    identical for every chunking/worker layout, so the partials (and
    any merge applied to them in block order) stay bitwise stable.
    """
    swing = spec.swing_v * (1.0 - policy.guardband_trim)
    n_workloads = len(spec.workloads)
    years = []
    for row in offsets:
        mag = np.abs(row)
        out = mag > swing
        hist = np.bincount(
            np.minimum((mag * _HIST_SCALE).astype(np.int64),
                       HIST_BINS - 1),
            minlength=HIST_BINS)
        years.append({
            "n": int(row.size),
            "out": int(np.count_nonzero(out)),
            "sum": float(row.sum()),
            "sumsq": float((row * row).sum()),
            "min": float(row.min()),
            "max": float(row.max()),
            "hist": hist,
            "workload_n": np.bincount(w_idx, minlength=n_workloads),
            "workload_out": np.bincount(w_idx[out],
                                        minlength=n_workloads),
        })
    return {"years": years}
