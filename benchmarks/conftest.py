"""Shared configuration for the paper-regeneration benchmarks.

Every benchmark regenerates one table or figure of the paper and writes
the rendered paper-vs-measured artefact to ``benchmarks/results/``.

Knobs (environment variables):

* ``REPRO_MC_SIZE`` — Monte-Carlo population (default 400, the paper's
  value).
* ``REPRO_FAST=1`` — quick mode: 64 samples, coarser bisection; useful
  for smoke-testing the harness.

Cells are cached in-process so the figure benchmarks (which plot the
same experiments the tables tabulate) do not pay for a second
Monte-Carlo run.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict

import pytest

from repro.circuits.sense_amp import ReadTiming
from repro.core.experiment import CellResult, run_cell
from repro.core.montecarlo import McSettings
from repro.core.paper import GridSpec, grid_cell
from repro.models import Environment, MismatchModel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FAST = os.environ.get("REPRO_FAST", "0") == "1"
MC_SIZE = int(os.environ.get("REPRO_MC_SIZE", "64" if FAST else "400"))
OFFSET_ITERATIONS = 10 if FAST else 14
TIMING = ReadTiming(dt=1e-12 if FAST else 0.5e-12)

SETTINGS = McSettings(size=MC_SIZE, seed=2017, mismatch=MismatchModel())

_CELL_CACHE: Dict[GridSpec, CellResult] = {}


def cached_cell(spec: GridSpec) -> CellResult:
    """Run (or fetch) one grid cell (``core.paper.GridSpec``) at the
    benchmark settings."""
    if spec not in _CELL_CACHE:
        _CELL_CACHE[spec] = run_cell(grid_cell(spec), settings=SETTINGS,
                                     timing=TIMING,
                                     offset_iterations=OFFSET_ITERATIONS)
    return _CELL_CACHE[spec]


def write_artifact(name: str, text: str) -> pathlib.Path:
    """Persist a rendered table/figure under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def corner_label():
    def label(temperature_c: float, vdd: float) -> str:
        return Environment.from_celsius(temperature_c, vdd).label()
    return label
