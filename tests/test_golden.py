"""Frozen results of the paper's Table II, one bank and one fleet.

The JSON documents under ``tests/golden/`` hold the exact outputs of
small but complete runs of the three products:

- ``table2_mc16.json``: all ten Table-II cells at 16 Monte-Carlo
  samples (seed 2017): every offset, the spec, the fit's mu and sigma
  and the mean sensing delay;
- ``bank_64x4.json``: an ``ArrayEngine.compare`` document of a 64x4
  bank at 8 samples per column;
- ``fleet_512.json``: a ``FleetEngine.compare`` document of 512
  devices under both policies;
- ``tail_is_cell0.json``: the importance-sampling tail of Table-II
  cell 0 (NSSA) at 16 nominal samples: every tail offset and
  log-weight, the effective sample size and the 1e-9 spec with its
  bootstrap interval.

Offsets, specs and every other figure must match bit for bit; delays
(and the figures computed from them) may move by 1 fs, the spread the
kernel's vector and scalar libm builds leave on them.  A refactor that
moves a sample is wrong: the documents are regenerated only when a
result is meant to change, with ``PYTHONPATH=src python -m
tests.test_golden --write``.
"""

from __future__ import annotations

import json
import math
import pathlib
import struct
import sys
from typing import Any, Dict, List, Optional

import pytest

from repro.array.engine import ArrayEngine
from repro.array.spec import ArraySpec
from repro.core.calibration import default_mc_settings
from repro.core.experiment import CellResult, run_cell
from repro.core.rare_event import EstimatorConfig
from repro.core.paper import grid_cells
from repro.fleet.engine import FleetEngine
from repro.fleet.spec import FleetSpec, MitigationPolicy
from repro.spice.backends import _cc, backend_host_info
from repro.spice.backends.compiled import _reset_flavor_cache

GOLDEN = pathlib.Path(__file__).parent / "golden"
TABLE2 = GOLDEN / "table2_mc16.json"
BANK = GOLDEN / "bank_64x4.json"
FLEET = GOLDEN / "fleet_512.json"
TAIL = GOLDEN / "tail_is_cell0.json"

MC_SIZE = 16
MC_SEED = 2017
#: Delays may differ by this much between kernel builds [s].
DELAY_TOLERANCE_S = 1e-15
#: Table-II cells also run on the numpy backend: the first NSSA and the
#: first ISSA cell.
NUMPY_CELLS = (0, 7)
#: The importance-sampling tail entry: Table-II cell 0, no delays.
TAIL_CELL = 0
TAIL_ESTIMATOR = EstimatorConfig(kind="is", samples=48, bootstrap=30)
TAIL_FAILURE_RATE = 1e-9


def run_table2_cell(index: int, backend: Optional[str] = None
                    ) -> CellResult:
    return run_cell(grid_cells("2")[index],
                    settings=default_mc_settings(size=MC_SIZE,
                                                 seed=MC_SEED),
                    backend=backend)


def nullable(values) -> List[Optional[float]]:
    return [None if math.isnan(v) else float(v) for v in values]


def cell_record(index: int, result: CellResult) -> Dict[str, Any]:
    cell = result.cell
    return {
        "index": index,
        "scheme": cell.scheme,
        "workload": cell.workload_label,
        "time_s": cell.time_s,
        "offsets": nullable(result.offset.offsets),
        "spec": result.offset.spec,
        "mu": result.offset.mu,
        "sigma": result.offset.sigma,
        "delay_s": result.delay_s,
    }


def as_json(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The document as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(doc, allow_nan=False))


def run_bank() -> Dict[str, Any]:
    spec = ArraySpec(rows=64, columns=4, mc=8, seed=MC_SEED)
    return as_json(ArrayEngine(spec, workers=1).compare(("nssa", "issa")))


def run_fleet() -> Dict[str, Any]:
    spec = FleetSpec(n_devices=512, block_size=256, seed=MC_SEED)
    return as_json(FleetEngine(spec, workers=1).compare(
        [MitigationPolicy("nssa"), MitigationPolicy("issa")]))


def run_tail(backend: Optional[str] = None) -> Dict[str, Any]:
    result = run_cell(grid_cells("2")[TAIL_CELL],
                      settings=default_mc_settings(size=MC_SIZE,
                                                   seed=MC_SEED),
                      estimator=TAIL_ESTIMATOR, measure_delay=False,
                      backend=backend)
    tail = result.offset.tail
    spec = tail.spec_at(TAIL_FAILURE_RATE)
    return {"index": TAIL_CELL,
            "estimator": {"kind": TAIL_ESTIMATOR.kind,
                          "samples": TAIL_ESTIMATOR.samples,
                          "bootstrap": TAIL_ESTIMATOR.bootstrap},
            "failure_rate": TAIL_FAILURE_RATE,
            "offsets": nullable(tail.offsets),
            "log_weights": nullable(tail.log_weights),
            "ess": tail.ess,
            "spec": {"value": spec.value, "lo": spec.lo, "hi": spec.hi}}


def same_float(got: float, want: Optional[float]) -> bool:
    """Bitwise float64 equality; ``None`` stands for NaN."""
    if want is None:
        return math.isnan(got)
    return struct.pack("<d", got) == struct.pack("<d", want)


def is_delay_key(key: str) -> bool:
    """Document fields that are, or are computed from, sensing delays."""
    return (key in ("delay_s", "worst_delay_ps", "develop_ps")
            or key.endswith("read_ps"))


def assert_doc_matches(got: Any, want: Any, path: str = "$",
                       key: str = "") -> None:
    """Exact match, except delay fields to 1 fs.

    A ``*_latency_gain_pct`` is a read-time difference over the
    baseline read time; it is held to the 2 fs that difference may
    move, scaled by the read time stored next to it.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for name, value in want.items():
            if name.endswith("_latency_gain_pct"):
                base = next(v for k, v in want.items()
                            if k.endswith("_read_ps"))
                bound = 2 * DELAY_TOLERANCE_S / (base * 1e-12) * 100.0
                assert abs(got[name] - value) <= bound, f"{path}.{name}"
            else:
                assert_doc_matches(got[name], value, f"{path}.{name}",
                                   name)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for index, (a, b) in enumerate(zip(got, want)):
            assert_doc_matches(a, b, f"{path}[{index}]", key)
    elif isinstance(want, float) and is_delay_key(key):
        scale = 1e-12 if key.endswith("_ps") else 1.0
        assert abs(got - want) * scale <= DELAY_TOLERANCE_S, path
    elif isinstance(want, float):
        assert isinstance(got, float) and same_float(got, want), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


def assert_cell_matches(got: Dict[str, Any], want: Dict[str, Any]) -> None:
    label = f"cell {want['index']} ({want['scheme']} {want['workload']})"
    for name in ("scheme", "workload", "time_s"):
        assert got[name] == want[name], label
    assert len(got["offsets"]) == len(want["offsets"]), label
    moved = [i for i, (a, b) in enumerate(zip(got["offsets"],
                                              want["offsets"]))
             if not same_float(math.nan if a is None else a, b)]
    assert not moved, f"{label}: samples {moved} moved"
    for name in ("spec", "mu", "sigma"):
        assert same_float(got[name], want[name]), f"{label}: {name}"
    assert abs(got["delay_s"] - want["delay_s"]) <= DELAY_TOLERANCE_S, \
        f"{label}: delay {got['delay_s']!r} vs {want['delay_s']!r}"


def load(path: pathlib.Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def table2() -> List[Dict[str, Any]]:
    doc = load(TABLE2)
    assert doc["mc"] == {"size": MC_SIZE, "seed": MC_SEED}
    assert len(doc["cells"]) == len(grid_cells("2"))
    return doc["cells"]


@pytest.mark.parametrize("index", range(len(grid_cells("2"))))
def test_table2_cell(table2, index):
    assert_cell_matches(cell_record(index, run_table2_cell(index)),
                        table2[index])


@pytest.mark.parametrize("index", NUMPY_CELLS)
def test_table2_cell_numpy_backend(table2, index):
    result = run_table2_cell(index, backend="numpy")
    assert_cell_matches(cell_record(index, result), table2[index])


@pytest.fixture()
def no_compiler(monkeypatch):
    """A process in which the C kernel does not load."""
    monkeypatch.setattr(_cc, "load_kernel", lambda: (None, 0.0, None))
    _reset_flavor_cache()
    yield
    _reset_flavor_cache()


@pytest.mark.parametrize("index", NUMPY_CELLS)
def test_table2_cell_without_compiler(no_compiler, index):
    """With no C kernel the compiled backend is the numpy backend bit
    for bit, delays included."""
    compiled = cell_record(index, run_table2_cell(index,
                                                  backend="compiled"))
    assert backend_host_info("compiled")["flavor"] == "numpy"
    reference = cell_record(index, run_table2_cell(index, backend="numpy"))
    # JSON writes each float's shortest round-trip repr: equal text is
    # equal bits.
    assert json.dumps(compiled) == json.dumps(reference)


def test_bank_document():
    assert_doc_matches(run_bank(), load(BANK))


def test_fleet_document():
    assert_doc_matches(run_fleet(), load(FLEET))


def test_is_tail_document():
    assert_doc_matches(run_tail(), load(TAIL))


def test_is_tail_document_numpy_backend():
    assert_doc_matches(run_tail(backend="numpy"), load(TAIL))


def test_delay_tolerance_is_tight():
    """The comparison itself: a 2 fs delay move or a one-ulp offset move
    fails."""
    cell = load(TABLE2)["cells"][0]
    moved = dict(cell, delay_s=cell["delay_s"] + 2e-15)
    with pytest.raises(AssertionError):
        assert_cell_matches(moved, cell)
    nudged = list(cell["offsets"])
    nudged[3] = math.nextafter(nudged[3], math.inf)
    with pytest.raises(AssertionError):
        assert_cell_matches(dict(cell, offsets=nudged), cell)
    with pytest.raises(AssertionError):
        assert_doc_matches({"read_ps": 363.0 + 2e-3}, {"read_ps": 363.0})
    with pytest.raises(AssertionError):
        assert_doc_matches({"mu_v": math.nextafter(0.1, 1.0)},
                           {"mu_v": 0.1})


def write() -> None:
    """Regenerate every golden document from the current program."""
    GOLDEN.mkdir(exist_ok=True)
    cells = [cell_record(index, run_table2_cell(index))
             for index in range(len(grid_cells("2")))]
    docs = {TABLE2: {"mc": {"size": MC_SIZE, "seed": MC_SEED},
                     "cells": cells},
            BANK: run_bank(), FLEET: run_fleet(), TAIL: run_tail()}
    for path, doc in docs.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    write()
