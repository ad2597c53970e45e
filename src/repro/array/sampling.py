"""Spawn-keyed per-column draw lanes.

Every random quantity of an array characterisation is drawn from a
``keyed_rng`` spawn key rooted at ``(spec.seed, ARRAY_STREAM, lane,
column, ...)``, never from a shared sequential stream.  Consequences:

- **Worker invariance.**  A column's draws depend only on its key, so
  the bank tables are bitwise identical for any ``--workers`` /
  ``chunk_size`` split of the column fan-out.
- **Common random numbers across schemes.**  Mismatch keys end in the
  CRC32 of the *device name* (not its enumeration rank — NSSA and ISSA
  have different device sets, so ranks would diverge).  The latch
  devices the two schemes share therefore receive identical time-zero
  populations, and an ISSA-vs-NSSA spec difference is a treatment
  effect, not sampling noise.
"""

from __future__ import annotations

import zlib
from typing import Dict, Mapping, Optional

import numpy as np

from ..aging.engine import age_circuit
from ..circuits.sense_amp import SenseAmpDesign
from ..core.calibration import default_aging_model
from ..core.montecarlo import duties_for
from ..models.temperature import Environment
from ..models.variation import MismatchModel, keyed_rng
from ..workloads import paper_workload
from .spec import ARRAY_STREAM

#: Draw lanes under ``ARRAY_STREAM`` (disjoint sub-streams).
LANE_MISMATCH = 1
LANE_AGING = 2


def device_key(name: str) -> int:
    """Stable integer key of a device name (CRC32 of its ASCII form)."""
    return zlib.crc32(name.encode("ascii"))


def column_mismatch(ratios: Mapping[str, float], mc: int, seed: int,
                    column: int,
                    mismatch: MismatchModel = MismatchModel(),
                    ) -> Dict[str, np.ndarray]:
    """Time-zero Vth mismatch population for one column's devices.

    Each device draws from its own ``(seed, ARRAY_STREAM,
    LANE_MISMATCH, column, crc32(name))`` key, so the result is
    independent of mapping order and identical for the shared devices
    of any two schemes.
    """
    if mc < 1:
        raise ValueError("population size must be positive")
    if column < 0:
        raise ValueError("column index must be non-negative")
    draws = {}
    for name, ratio in ratios.items():
        rng = keyed_rng(seed, ARRAY_STREAM, LANE_MISMATCH, column,
                        device_key(name))
        draws[name] = rng.standard_normal(mc) * mismatch.sigma_vth(ratio)
    return draws


def column_aging(design: SenseAmpDesign, workload: Optional[str],
                 time_s: float, env: Environment, mc: int, seed: int,
                 column: int) -> Dict[str, np.ndarray]:
    """BTI shift population for one column after ``time_s`` of stress.

    Fresh columns (``time_s == 0`` or no workload) return no shifts.
    The lane key is shared across schemes (the stress history is the
    bank's, not the scheme's); the per-device draws then follow each
    scheme's own netlist and duty map.
    """
    if workload is None or time_s == 0.0:
        return {}
    duties = duties_for(design, paper_workload(workload), 0.0)
    rng = keyed_rng(seed + 1, ARRAY_STREAM, LANE_AGING, column)
    return age_circuit(design.circuit, default_aging_model(), duties,
                       time_s, env, mc, rng)

