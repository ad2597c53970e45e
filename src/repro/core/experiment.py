"""Experiment runner: one object per table cell of the paper.

A *cell* is one (scheme, workload, stress time, corner) combination; a
:class:`CellResult` carries the three offset figures the paper tabulates
(mu, sigma, spec) plus the mean sensing delay.  Running a whole table
is a loop over cells — see the ``benchmarks/`` directory for the exact
grids of Tables II-IV and Figures 4-7.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..analysis.perf import PERF
from ..circuits.sense_amp import ReadTiming, build_issa, build_nssa
from ..constants import FAILURE_RATE_TARGET
from ..models.temperature import Environment
from ..workloads import Workload
from ..aging.engine import AgingModel
from .cache import ResultCache
from .calibration import default_aging_model, default_mc_settings
from .montecarlo import (McSettings, sample_aging_keyed, sample_mismatch,
                         sample_total_shifts)
from .offset import OffsetDistribution, extract_offsets, fit_offsets
from .rare_event import EstimatorConfig, TailEstimate, estimate_tail
from ..spice.backends import resolve_backend
from ..spice.backends.base import SolverBackend
from .testbench import SenseAmpTestbench

#: Differential input magnitude used for sensing-delay reads [V]; a
#: provisioned bitline swing comfortably above the worst aged offset
#: spec, as a real design would allocate.
DELAY_READ_SWING = 0.2


@dataclasses.dataclass(frozen=True)
class ExperimentCell:
    """One table cell: scheme + workload + stress time + corner.

    ``workload=None`` (or ``time_s=0``) denotes the fresh population.
    For the ISSA the workload is the *external* one; the scheme
    balances it internally, so the paper labels ISSA rows by activation
    rate only.
    """

    scheme: str
    workload: Optional[Workload]
    time_s: float
    env: Environment = dataclasses.field(default_factory=Environment.nominal)

    def __post_init__(self) -> None:
        if self.scheme not in ("nssa", "issa"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.time_s < 0.0:
            raise ValueError("stress time must be non-negative")

    @property
    def workload_label(self) -> str:
        if self.workload is None or self.time_s == 0.0:
            return "-"
        if self.scheme == "issa":
            return str(self.workload.balanced())
        return str(self.workload)


@dataclasses.dataclass(frozen=True)
class CellResult:
    """Characterisation results of one cell (paper-table units)."""

    cell: ExperimentCell
    offset: Optional[OffsetDistribution]
    delay_s: float

    @property
    def mu_mv(self) -> float:
        return self.offset.mu * 1e3 if self.offset else float("nan")

    @property
    def sigma_mv(self) -> float:
        return self.offset.sigma * 1e3 if self.offset else float("nan")

    @property
    def spec_mv(self) -> float:
        return self.offset.spec * 1e3 if self.offset else float("nan")

    @property
    def delay_ps(self) -> float:
        return self.delay_s * 1e12

    def row(self) -> Dict[str, float]:
        """The paper-table row as a plain dict (for reports/tests)."""
        return {
            "scheme": self.cell.scheme.upper(),
            "time_s": self.cell.time_s,
            "workload": self.cell.workload_label,
            "mu_mV": round(self.mu_mv, 2),
            "sigma_mV": round(self.sigma_mv, 2),
            "spec_mV": round(self.spec_mv, 1),
            "delay_ps": round(self.delay_ps, 2),
        }


def build_design(scheme: str):
    """Instantiate a fresh netlist for a scheme name."""
    return build_issa() if scheme == "issa" else build_nssa()


def _delay_components(testbench: SenseAmpTestbench,
                      workload: Optional[Workload],
                      ) -> List[Tuple[float, np.ndarray]]:
    """Per-direction sensing delays as ``(weight, per-sample values)``.

    An unbalanced workload is timed on its dominant read value (the
    operation the memory actually performs); balanced and fresh cells
    average both read directions.  Keeping the raw per-sample arrays
    (rather than the weighted mean) lets chunked runs concatenate the
    populations before averaging, so chunking cannot change the result.
    """
    zero_frac = 0.5
    if workload is not None and testbench.design.kind == "nssa":
        zero_frac = workload.zero_fraction
    delays = []
    if zero_frac > 0.0:
        delays.append((zero_frac,
                       testbench.sensing_delay(-DELAY_READ_SWING)))
    if zero_frac < 1.0:
        delays.append((1.0 - zero_frac,
                       testbench.sensing_delay(+DELAY_READ_SWING)))
    return delays


def _mean_delay(testbench: SenseAmpTestbench,
                workload: Optional[Workload]) -> float:
    """Mean sensing delay [s] per the cell's dominant read mix."""
    return float(sum(weight * np.nanmean(values) for weight, values
                     in _delay_components(testbench, workload)))


def _chunk_shifts(shifts: Mapping[str, Union[float, np.ndarray]],
                  size: int, chunk_size: Optional[int],
                  ) -> List[Dict[str, Union[float, np.ndarray]]]:
    """Split a full-population shift table into batch chunks.

    The population is sampled *once* at full size and sliced here, so
    a chunked run consumes exactly the same Monte-Carlo draws (in the
    same order) as an unchunked one — chunking controls peak memory,
    not the statistics.
    """
    if chunk_size is None or chunk_size >= size:
        return [dict(shifts)]
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    chunks = []
    for start in range(0, size, chunk_size):
        stop = min(start + chunk_size, size)
        chunks.append({name: (value[start:stop]
                              if isinstance(value, np.ndarray)
                              else value)
                       for name, value in shifts.items()})
    return chunks


def _run_tail_estimator(config: EstimatorConfig,
                        cell: ExperimentCell,
                        design,
                        settings: McSettings,
                        aging: Optional[AgingModel],
                        timing: ReadTiming,
                        failure_rate: float,
                        offset_iterations: int,
                        chunk_size: Optional[int],
                        pilot_offsets: np.ndarray,
                        backend: Union["SolverBackend", str, None] = None,
                        ) -> TailEstimate:
    """Run the rare-event engine against the cell's real testbench.

    The engine proposes per-device *mismatch* shift populations; this
    bridge adds the cell's BTI component (drawn once per population
    size from its own spawn key, so repeated calls — one per sigma
    scale — share the same aging draws), chunks for peak memory exactly
    like the nominal run, and extracts offsets through the standard
    binary search.  The nominal population doubles as the
    importance-sampling pilot at zero extra simulation cost.
    """

    def simulate(mismatch_shifts: Dict[str, np.ndarray]) -> np.ndarray:
        size = len(next(iter(mismatch_shifts.values())))
        bti = sample_aging_keyed(design, aging, cell.workload, cell.time_s,
                                 cell.env, settings, size)
        total = {name: values + bti.get(name, 0.0)
                 for name, values in mismatch_shifts.items()}
        parts = []
        for chunk in _chunk_shifts(total, size, chunk_size):
            batch = len(next(iter(chunk.values())))
            testbench = SenseAmpTestbench(design, cell.env,
                                          batch_size=batch, timing=timing,
                                          backend=backend)
            testbench.set_vth_shifts(chunk)
            parts.append(extract_offsets(testbench,
                                         iterations=offset_iterations))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    with PERF.timer("cell.tail"):
        return estimate_tail(simulate, settings.mismatch,
                             design.circuit.mosfet_ratios(), config,
                             seed=settings.seed, failure_rate=failure_rate,
                             pilot_shifts=sample_mismatch(design, settings),
                             pilot_offsets=pilot_offsets)


def run_cell(cell: ExperimentCell,
             settings: Optional[McSettings] = None,
             aging: Optional[AgingModel] = None,
             timing: ReadTiming = ReadTiming(),
             failure_rate: float = FAILURE_RATE_TARGET,
             measure_offset: bool = True,
             measure_delay: bool = True,
             offset_iterations: int = 14,
             chunk_size: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             estimator: Optional[EstimatorConfig] = None,
             backend: Union["SolverBackend", str, None] = None) -> CellResult:
    """Characterise one cell: Monte-Carlo offsets and sensing delay.

    Parameters
    ----------
    cell:
        The cell to run.
    settings:
        Monte-Carlo settings; defaults to the paper's 400 samples.
    aging:
        BTI model pair; defaults to the calibrated model.
    timing:
        Read-operation timing.
    failure_rate:
        Spec target of Eq. (3).
    measure_offset / measure_delay:
        Disable one measurement to save time (Figure 7 needs delays
        only).
    offset_iterations:
        Binary-search depth for the offset extraction.
    chunk_size:
        Split the Monte-Carlo batch into chunks of at most this many
        samples (peak-memory control for large populations).  The
        population is drawn once at full size and sliced, the chunk
        distributions are concatenated before the single normal fit,
        and each sample's transients are independent — so chunked
        results are identical to the unchunked run.
    cache:
        Optional persistent :class:`~repro.core.cache.ResultCache`; on
        a key hit the stored result is returned without simulating, on
        a miss the computed result is stored for the next run.
    estimator:
        Optional rare-event tail estimator
        (:class:`~repro.core.rare_event.EstimatorConfig`).  ``None`` or
        ``kind="fit"`` keeps the paper's normal-fit extrapolation
        bit-identically; ``kind="is"``/``"scaled-sigma"`` additionally
        run the variance-reduction engine on the same testbench and
        attach the :class:`~repro.core.rare_event.TailEstimate` to the
        offset distribution, which then answers spec queries from the
        directly-sampled tail.  The resolved estimator is part of the
        cache key, so fit and tail entries never collide.
    backend:
        Solver backend for the transient hot loop — a registered name,
        a :class:`~repro.spice.backends.base.SolverBackend` instance,
        or ``None`` for environment/default resolution (see
        :mod:`repro.spice.backends`).  Resolved once per cell; the
        resolved backend's identity is part of the cache key, so cached
        results never mix backends.
    """
    settings = settings or default_mc_settings()
    aging = aging or default_aging_model()
    design = build_design(cell.scheme)
    solver_backend = resolve_backend(backend)
    active = None
    if (estimator is not None and estimator.kind != "fit"
            and measure_offset):
        active = estimator

    key = None
    if cache is not None:
        key = cache.key_for_cell(cell, design=design, settings=settings,
                                 aging=aging, timing=timing,
                                 failure_rate=failure_rate,
                                 measure_offset=measure_offset,
                                 measure_delay=measure_delay,
                                 offset_iterations=offset_iterations,
                                 estimator=active,
                                 backend=solver_backend)
        cached = cache.load(key, cell, failure_rate)
        if cached is not None:
            return cached

    shifts = sample_total_shifts(design, aging, cell.workload, cell.time_s,
                                 cell.env, settings)
    chunks = _chunk_shifts(shifts, settings.size, chunk_size)
    sizes = ([settings.size] if len(chunks) == 1 else
             [min(chunk_size, settings.size - i * chunk_size)
              for i in range(len(chunks))])

    PERF.count("cell.runs")
    offset_parts: List[np.ndarray] = []
    delay_parts: List[List[Tuple[float, np.ndarray]]] = []
    for chunk, batch in zip(chunks, sizes):
        testbench = SenseAmpTestbench(design, cell.env, batch_size=batch,
                                      timing=timing, backend=solver_backend)
        testbench.set_vth_shifts(chunk)
        if measure_offset:
            with PERF.timer("cell.offset"):
                offset_parts.append(
                    extract_offsets(testbench,
                                    iterations=offset_iterations))
        if measure_delay:
            with PERF.timer("cell.delay"):
                delay_parts.append(
                    _delay_components(testbench, cell.workload))

    offset = None
    if measure_offset:
        offsets = (offset_parts[0] if len(offset_parts) == 1
                   else np.concatenate(offset_parts))
        tail: Optional[TailEstimate] = None
        if active is not None:
            tail = _run_tail_estimator(active, cell, design, settings,
                                       aging, timing, failure_rate,
                                       offset_iterations, chunk_size,
                                       offsets, backend=solver_backend)
        offset = OffsetDistribution(offsets=offsets,
                                    fit=fit_offsets(offsets),
                                    failure_rate=failure_rate,
                                    tail=tail)
    delay = float("nan")
    if measure_delay:
        directions: Dict[int, Tuple[float, List[np.ndarray]]] = {}
        for components in delay_parts:
            for index, (weight, values) in enumerate(components):
                directions.setdefault(index, (weight, []))[1].append(values)
        delay = float(sum(weight * np.nanmean(np.concatenate(values))
                          for weight, values in directions.values()))
    result = CellResult(cell=cell, offset=offset, delay_s=delay)
    if cache is not None:
        cache.store(key, result)
    return result
