"""Array geometry and characterisation spec.

``ArraySpec`` describes one memory bank the way ``fleet.FleetSpec``
describes a device fleet: a frozen dataclass with a strict JSON wire
format (``to_dict``/``from_dict`` reject unknown fields), validated on
construction, usable directly as a cache-key/dedup identity.

Geometry follows the OpenNVRAM characterizer's axes — rows x columns x
words-per-row x column-mux factor — where *columns* is the number of
sense amplifiers (data bits) per bank and each SA serves ``mux_factor``
bitline pairs through the column mux.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.offset import MAX_ITERATIONS
from ..workloads import paper_workload

#: Spawn-key stream of every array draw lane (disjoint from the cell
#: RNG, RARE_EVENT_STREAM and FLEET_STREAM).
ARRAY_STREAM = 0xA44A9

_SCHEMES = ("nssa", "issa")


@dataclasses.dataclass(frozen=True)
class ArraySpec:
    """One memory bank plus its characterisation knobs.

    Attributes
    ----------
    rows:
        Cells per bitline; sets the bitline RC loading.
    columns:
        Sense amplifiers (data bits) per bank.
    words_per_row:
        Words interleaved in one physical row.
    mux_factor:
        Bitline pairs multiplexed onto each SA input; must be a
        multiple of ``words_per_row`` (every word's bits stay one mux
        select apart).
    workload:
        Paper workload name stressing the bank (e.g. ``"80r0"``), or
        ``None`` for an unstressed bank.
    times_s:
        Aging checkpoints [s], strictly increasing, first may be 0.
    temp_c / vdd:
        Environmental corner.
    mc:
        Monte-Carlo population per column.
    seed:
        Root of every per-column spawn key.
    offset_iterations:
        Offset binary-search depth.
    swing_mv:
        Provisioned differential swing at the SA input [mV]; the bank
        is "in spec" while its joint offset spec plus noise margin
        stays under this.
    noise_margin_mv:
        Design margin added to the offset spec [mV].
    """

    rows: int = 256
    columns: int = 8
    words_per_row: int = 4
    mux_factor: int = 4
    workload: Optional[str] = "80r0"
    times_s: Tuple[float, ...] = (0.0, 1e8)
    temp_c: float = 25.0
    vdd: float = 1.0
    mc: int = 64
    seed: int = 2017
    offset_iterations: int = 14
    swing_mv: float = 250.0
    noise_margin_mv: float = 20.0

    def __post_init__(self) -> None:
        for name in ("rows", "columns", "words_per_row", "mux_factor"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.mux_factor % self.words_per_row != 0:
            raise ValueError(
                "mux factor must be a multiple of words per row")
        if self.workload is not None:
            paper_workload(self.workload)  # validates the name
        for name in ("temp_c", "vdd", "swing_mv", "noise_margin_mv"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        times = tuple(float(t) for t in self.times_s)
        if not times:
            raise ValueError("at least one time checkpoint is required")
        if not all(math.isfinite(t) and t >= 0.0 for t in times):
            raise ValueError("times must be finite and non-negative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times_s", times)
        if self.temp_c <= -273.15:
            raise ValueError("temperature must be above absolute zero")
        if self.vdd <= 0.0:
            raise ValueError("vdd must be positive")
        if not isinstance(self.mc, int) or self.mc < 2:
            raise ValueError("mc population must be at least 2")
        if not isinstance(self.offset_iterations, int) \
                or not 1 <= self.offset_iterations <= MAX_ITERATIONS:
            raise ValueError(f"offset iterations must be in 1.."
                             f"{MAX_ITERATIONS}")
        if self.swing_mv <= 0.0 or self.noise_margin_mv < 0.0:
            raise ValueError("swing must be positive, margin non-negative")

    # -- derived geometry -------------------------------------------------
    @property
    def bitline_pairs(self) -> int:
        """Physical bitline pairs in the bank."""
        return self.columns * self.mux_factor

    @property
    def cells(self) -> int:
        """Storage cells in the bank (one per bitline pair per row)."""
        return self.rows * self.bitline_pairs

    @property
    def words(self) -> int:
        """Addressable words (``columns`` bits each)."""
        return self.rows * self.words_per_row

    @property
    def swing_v(self) -> float:
        return self.swing_mv * 1e-3

    @property
    def noise_margin_v(self) -> float:
        return self.noise_margin_mv * 1e-3

    def geometry(self) -> Dict[str, int]:
        """The geometry block stamped into reports and ``/metrics``."""
        return {
            "rows": self.rows,
            "columns": self.columns,
            "words_per_row": self.words_per_row,
            "mux_factor": self.mux_factor,
            "bitline_pairs": self.bitline_pairs,
            "cells": self.cells,
        }

    # -- wire format ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["times_s"] = list(self.times_s)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArraySpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown ArraySpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "times_s" in kwargs:
            kwargs["times_s"] = tuple(kwargs["times_s"])
        return cls(**kwargs)


def geometry_grid(base: ArraySpec,
                  rows: Tuple[int, ...] = (64, 256),
                  columns: Tuple[int, ...] = (4, 16)) -> List[ArraySpec]:
    """Sweep a base spec over a rows x columns geometry grid."""
    return [dataclasses.replace(base, rows=r, columns=c)
            for r in rows for c in columns]


def validate_schemes(schemes) -> Tuple[str, ...]:
    """Normalise and validate a scheme tuple (order preserved)."""
    out = tuple(str(s).lower() for s in schemes)
    if not out:
        raise ValueError("at least one scheme is required")
    for s in out:
        if s not in _SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; expected {_SCHEMES}")
    if len(set(out)) != len(out):
        raise ValueError("duplicate schemes")
    return out
