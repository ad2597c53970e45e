"""Fleet-simulation specifications: population, traces, policies.

A :class:`FleetSpec` describes a *population* of sense-amplifier
instances — how many devices, which workload/temperature/supply mixes
they are drawn from, how their lifetime is discretised into streamed
trace phases, and what input swing the design provisions.  A
:class:`MitigationPolicy` describes one aging-management strategy to
evaluate over that population: the paper's NSSA baseline, the ISSA
input-switching scheme (optionally with a residual balancing error),
periodic rejuvenation (recovery phases with the SA parked unstressed),
and guardband trimming.

Both are frozen dataclasses with JSON-primitive wire forms
(:meth:`to_dict` / :meth:`from_dict`) so fleet requests journal, POST
and content-address exactly like cell characterisations do.

Sampling identity
-----------------
``seed`` and ``block_size`` together fix the population *statistically*:
devices are sampled in blocks of ``block_size`` from spawn-keyed RNG
lanes (one key per ``(seed, lane, block)``), so any chunking of blocks
across workers reproduces the same draws.  Changing ``block_size``
changes which draws each device receives — it is part of the spec, not
an execution knob (execution chunking happens in whole blocks and is
result-invariant).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Sequence, Tuple

from ..constants import ZERO_CELSIUS
from ..validation import finite_real, require_finite, require_int
from ..workloads import paper_workload

#: Seconds per (Julian) year — the trace-phase time base.
YEAR_S = 365.25 * 86400.0

#: Spawn-key stream of every fleet RNG lane (see sampling.py).
FLEET_STREAM = 0xF1EE7

_DEFAULT_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    ("80r0r1", 1.0), ("80r0", 1.0), ("80r1", 1.0),
    ("20r0r1", 1.0), ("20r0", 1.0), ("20r1", 1.0))

_DEFAULT_TEMPS: Tuple[Tuple[float, float], ...] = (
    (25.0, 0.5), (75.0, 0.3), (125.0, 0.2))

_DEFAULT_VDDS: Tuple[Tuple[float, float], ...] = (
    (0.9, 0.2), (1.0, 0.6), (1.1, 0.2))


def _weighted_pairs(pairs: Sequence[Sequence[Any]],
                    what: str) -> Tuple[Tuple[Any, float], ...]:
    """Validate/normalise a ((value, weight), ...) profile."""
    out = []
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"{what} entries must be (value, weight)")
        value, weight = pair
        weight = finite_real(weight, f"{what} weight")
        if weight < 0.0:
            raise ValueError(f"{what} weights must be non-negative")
        out.append((value, weight))
    if not out or sum(w for _, w in out) <= 0.0:
        raise ValueError(f"{what} profile needs positive total weight")
    return tuple(out)


def _corner_pairs(pairs: Sequence[Sequence[Any]], what: str,
                  floor: float) -> Tuple[Tuple[float, float], ...]:
    """A weighted profile of finite corner values above ``floor``."""
    out = tuple((finite_real(v, what), w)
                for v, w in _weighted_pairs(pairs, what))
    if not all(v > floor for v, _ in out):
        raise ValueError(f"{what} values must be above {floor:g}")
    return out


@dataclasses.dataclass(frozen=True)
class MitigationPolicy:
    """One aging-management strategy evaluated over a fleet.

    Attributes
    ----------
    scheme:
        ``"nssa"`` (no mitigation) or ``"issa"`` (input switching; the
        internal read mix is balanced to 0.5 up to
        ``residual_imbalance``).
    residual_imbalance:
        Fraction of the *external* imbalance the switching scheme fails
        to remove (0 = ideal balancing, 1 = no balancing at all); maps
        an external per-phase zero-fraction ``f`` to the internal
        ``0.5 + residual_imbalance * (f - 0.5)``.
    rejuvenation_interval_years:
        When positive, the device is periodically parked (duty 0, pure
        recovery) — the rejuvenation campaigns of the BTI
        address-decoder study.  0 disables rejuvenation.
    rejuvenation_phases:
        Trace phases spent in recovery at the end of each interval.
    guardband_trim:
        Fraction shaved off the provisioned swing (0.1 = sign off with
        10 % less margin); trimming trades yield for performance.
    name:
        Display name; defaults to a description of the knobs.
    """

    scheme: str = "nssa"
    residual_imbalance: float = 0.0
    rejuvenation_interval_years: float = 0.0
    rejuvenation_phases: int = 1
    guardband_trim: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.scheme not in ("nssa", "issa"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        require_finite(self, "residual_imbalance",
                       "rejuvenation_interval_years", "guardband_trim")
        require_int(self, "rejuvenation_phases")
        if not 0.0 <= self.residual_imbalance <= 1.0:
            raise ValueError("residual imbalance must be within [0, 1]")
        if self.rejuvenation_interval_years < 0.0:
            raise ValueError("rejuvenation interval must be >= 0")
        if not 0.0 <= self.guardband_trim < 1.0:
            raise ValueError("guardband trim must be within [0, 1)")
        if not self.name:
            object.__setattr__(self, "name", self._describe())

    def _describe(self) -> str:
        parts = [self.scheme]
        if self.scheme == "issa" and self.residual_imbalance:
            parts.append(f"res{self.residual_imbalance:g}")
        if self.rejuvenation_interval_years:
            parts.append(f"rejuv{self.rejuvenation_interval_years:g}y")
        if self.guardband_trim:
            parts.append(f"trim{self.guardband_trim:g}")
        return "-".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "MitigationPolicy":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(
                f"unknown policy field(s): {', '.join(sorted(unknown))}")
        return cls(**dict(doc))


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """A fleet population and its streamed lifetime discretisation.

    Attributes
    ----------
    n_devices:
        Fleet size (device instances; each instance is one latch NMOS
        pair with its own mismatch, workload history and corner).
    seed:
        Root of every spawn-keyed RNG lane.
    block_size:
        Devices per sampling block — the atomic RNG/reduction unit
        (part of the statistical identity, see the module docstring).
    years:
        Lifetime checkpoints [years] at which the offset distribution
        is evaluated; must be multiples of the phase duration.
    phases_per_year:
        Trace phases per year; each phase re-draws the device's
        empirical read mix and propagates trap occupancies.
    reads_per_phase:
        Reads sampled per trace phase; the per-phase zero-fraction is
        the Binomial(reads_per_phase, f0) empirical mix, so shorter
        phases see noisier duty factors (trace-driven aging).
    workloads:
        ``(paper workload name, weight)`` mix devices draw from.
    temps_c / vdds:
        ``(value, weight)`` environmental profiles (fixed per device).
    swing_mv:
        Provisioned input swing [mV]; a device is out of spec at a
        checkpoint when its required offset exceeds the (possibly
        guardband-trimmed) swing.
    """

    n_devices: int = 100_000
    seed: int = 2017
    block_size: int = 4096
    years: Tuple[float, ...] = (1.0, 3.0, 10.0)
    phases_per_year: int = 4
    reads_per_phase: int = 1024
    workloads: Tuple[Tuple[str, float], ...] = _DEFAULT_WORKLOADS
    temps_c: Tuple[Tuple[float, float], ...] = _DEFAULT_TEMPS
    vdds: Tuple[Tuple[float, float], ...] = _DEFAULT_VDDS
    swing_mv: float = 90.0

    def __post_init__(self) -> None:
        require_int(self, "n_devices", "block_size", "phases_per_year",
                    "reads_per_phase")
        require_int(self, "seed", minimum=0)
        require_finite(self, "swing_mv")
        if self.swing_mv <= 0.0:
            raise ValueError("provisioned swing must be positive")
        if not self.years:
            raise ValueError("need at least one checkpoint year")
        years = tuple(finite_real(y, "checkpoint year") for y in self.years)
        if sorted(years) != list(years) or len(set(years)) != len(years):
            raise ValueError("checkpoint years must be strictly increasing")
        for year in years:
            if year <= 0.0:
                raise ValueError("checkpoint years must be positive")
            phases = year * self.phases_per_year
            if abs(phases - round(phases)) > 1e-9:
                raise ValueError(
                    f"checkpoint year {year:g} is not a whole number of "
                    f"trace phases ({self.phases_per_year}/year)")
        object.__setattr__(self, "years", years)
        object.__setattr__(
            self, "workloads",
            _weighted_pairs(self.workloads, "workload"))
        for name, _ in self.workloads:
            paper_workload(name)  # validates the name
        object.__setattr__(self, "temps_c",
                           _corner_pairs(self.temps_c, "temperature",
                                         -ZERO_CELSIUS))
        object.__setattr__(self, "vdds",
                           _corner_pairs(self.vdds, "vdd", 0.0))

    # -- derived geometry ------------------------------------------------

    @property
    def phase_s(self) -> float:
        """Duration of one trace phase [s]."""
        return YEAR_S / self.phases_per_year

    @property
    def n_phases(self) -> int:
        """Total streamed phases (up to the last checkpoint)."""
        return int(round(self.years[-1] * self.phases_per_year))

    def checkpoint_phases(self) -> Tuple[int, ...]:
        """Phase counts after which each checkpoint year falls."""
        return tuple(int(round(y * self.phases_per_year))
                     for y in self.years)

    @property
    def n_blocks(self) -> int:
        return -(-self.n_devices // self.block_size)

    def block_bounds(self, block: int) -> Tuple[int, int]:
        """``[start, stop)`` device indices of sampling block ``block``."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range")
        start = block * self.block_size
        return start, min(start + self.block_size, self.n_devices)

    @property
    def swing_v(self) -> float:
        return self.swing_mv * 1e-3

    # -- wire form -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["years"] = list(self.years)
        doc["workloads"] = [[n, w] for n, w in self.workloads]
        doc["temps_c"] = [[t, w] for t, w in self.temps_c]
        doc["vdds"] = [[v, w] for v, w in self.vdds]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FleetSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(
                f"unknown fleet-spec field(s): "
                f"{', '.join(sorted(unknown))}")
        doc = dict(doc)
        for key in ("years", "workloads", "temps_c", "vdds"):
            if key in doc:
                doc[key] = tuple(tuple(v) if isinstance(v, (list, tuple))
                                 else v for v in doc[key])
        return cls(**doc)
