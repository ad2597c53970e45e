"""Tests for the parallel experiment-grid runner and batch chunking."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core.calibration import default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.core.mitigation import compare_schemes
from repro.core.parallel import (GridCancelled, GridTimeout,
                                 default_workers, run_cells)
from repro.models import Environment
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)


def tiny_cells():
    return [ExperimentCell("nssa", paper_workload("80r0"), 1e8,
                           Environment.from_celsius(25.0, 1.0)),
            ExperimentCell("issa", paper_workload("80r0"), 1e8,
                           Environment.from_celsius(125.0, 0.9))]


def settings(size=8):
    return default_mc_settings(size=size, seed=2017)


def assert_same_results(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.cell == y.cell
        np.testing.assert_array_equal(x.offset.offsets, y.offset.offsets)
        assert x.offset.mu == y.offset.mu
        assert x.offset.sigma == y.offset.sigma
        assert x.delay_s == y.delay_s


class TestRunCells:
    def test_serial_matches_run_cell(self):
        cells = tiny_cells()
        via_grid = run_cells(cells, settings=settings(), timing=TIMING,
                             offset_iterations=6, workers=1)
        direct = [run_cell(cell, settings=settings(), timing=TIMING,
                           offset_iterations=6) for cell in cells]
        assert_same_results(via_grid, direct)

    def test_workers_match_serial(self):
        cells = tiny_cells()
        serial = run_cells(cells, settings=settings(), timing=TIMING,
                           offset_iterations=6, workers=1)
        parallel = run_cells(cells, settings=settings(), timing=TIMING,
                             offset_iterations=6, workers=2)
        assert_same_results(serial, parallel)

    def test_progress_reports_every_cell(self):
        seen = []
        cells = tiny_cells()
        run_cells(cells, settings=settings(4), timing=TIMING,
                  offset_iterations=4, workers=1,
                  progress=lambda i, total, cell: seen.append((i, total)))
        assert seen == [(0, 2), (1, 2)]

    def test_parallel_progress_reports_every_cell(self):
        seen = []
        cells = tiny_cells()
        run_cells(cells, settings=settings(4), timing=TIMING,
                  offset_iterations=4, workers=2,
                  progress=lambda i, total, cell: seen.append((i, total)))
        assert sorted(seen) == [(0, 2), (1, 2)]

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_default_workers_uses_process_cpu_count(self, monkeypatch):
        """cgroup-limited hosts must size the pool from the usable
        CPUs, not the machine total."""
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3,
                            raising=False)
        assert default_workers() == 3

    def test_parallel_run_merges_perf_counters(self):
        """Worker snapshots merge into the parent recorder, so the
        counters survive ``--workers N``."""
        PERF.reset()
        run_cells(tiny_cells(), settings=settings(4), timing=TIMING,
                  offset_iterations=4, workers=2)
        counters = PERF.snapshot()["counters"]
        assert counters.get("newton.iterations", 0) > 0
        assert counters.get("cell.runs", 0) == 2


def _no_executor_children(timeout=10.0):
    """True once no live pool worker children remain."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestInterruption:
    """Timeout / cancel / interrupt handling must reap pool children.

    Regression coverage for the seed behaviour where a
    ``KeyboardInterrupt`` during a parallel grid hung in
    ``ProcessPoolExecutor.__exit__`` until every queued cell finished
    (and could orphan workers when the parent died first).
    """

    def grid(self):
        # Enough cells that a pool has work queued when a test stops it.
        return [ExperimentCell("nssa", paper_workload("80r0"), 1e8,
                               Environment.from_celsius(25.0, 1.0))
                for _ in range(32)]

    def test_serial_timeout_raises_grid_timeout(self):
        with pytest.raises(GridTimeout):
            run_cells(self.grid(), settings=settings(4), timing=TIMING,
                      offset_iterations=4, workers=1, timeout=0.0)

    def test_serial_cancel_raises_grid_cancelled(self):
        cancelled = threading.Event()
        cancelled.set()
        with pytest.raises(GridCancelled):
            run_cells(self.grid(), settings=settings(4), timing=TIMING,
                      offset_iterations=4, workers=1, cancel=cancelled)

    def test_serial_cancel_mid_run_stops_at_cell_boundary(self):
        cancelled = threading.Event()
        ran = []

        def progress(index, total, cell):
            ran.append(index)
            cancelled.set()  # cancel after the first cell starts

        with pytest.raises(GridCancelled):
            run_cells(self.grid(), settings=settings(4), timing=TIMING,
                      offset_iterations=4, workers=1, cancel=cancelled,
                      progress=progress)
        assert ran == [0]

    def test_parallel_timeout_reaps_workers(self):
        timeout = 0.2
        returned = []

        def progress(index, total, cell):
            returned.append(index)
            if len(returned) == 1:
                # The deadline was set before the first cell came back,
                # so this sleep passes it: the next check must raise.
                time.sleep(timeout)

        start = time.monotonic()
        with pytest.raises(GridTimeout):
            run_cells(self.grid(), settings=settings(16), timing=TIMING,
                      offset_iterations=8, workers=2, timeout=timeout,
                      progress=progress)
        # Tore down long before the 32-cell grid could finish...
        assert len(returned) < len(self.grid())
        assert time.monotonic() - start < 30.0
        # ...and left no orphaned pool processes behind.
        assert _no_executor_children()

    def test_parallel_cancel_reaps_workers(self):
        cancelled = threading.Event()
        returned = []

        def progress(index, total, cell):
            returned.append(index)
            cancelled.set()  # cancel once the first cell is back

        with pytest.raises(GridCancelled):
            run_cells(self.grid(), settings=settings(16), timing=TIMING,
                      offset_iterations=8, workers=2, cancel=cancelled,
                      progress=progress)
        assert len(returned) < len(self.grid())
        assert _no_executor_children()

    def test_keyboard_interrupt_reaps_workers(self):
        """A Ctrl-C surfacing in the parent's result loop must kill
        the pool instead of waiting out the whole grid."""
        def interrupt(index, total, cell):
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cells(self.grid(), settings=settings(16), timing=TIMING,
                      offset_iterations=8, workers=2, progress=interrupt)
        assert time.monotonic() - start < 30.0
        assert _no_executor_children()

    def test_completed_grid_ignores_unset_cancel(self):
        cancelled = threading.Event()
        results = run_cells(tiny_cells(), settings=settings(4),
                            timing=TIMING, offset_iterations=4,
                            workers=2, cancel=cancelled, timeout=600.0)
        assert len(results) == 2


class TestChunking:
    def test_chunked_matches_unchunked(self):
        cell = tiny_cells()[0]
        whole = run_cell(cell, settings=settings(10), timing=TIMING,
                         offset_iterations=6)
        chunked = run_cell(cell, settings=settings(10), timing=TIMING,
                           offset_iterations=6, chunk_size=3)
        np.testing.assert_array_equal(whole.offset.offsets,
                                      chunked.offset.offsets)
        assert whole.offset.mu == chunked.offset.mu
        assert whole.offset.sigma == chunked.offset.sigma
        assert whole.delay_s == chunked.delay_s

    def test_oversized_chunk_is_single_batch(self):
        cell = tiny_cells()[0]
        whole = run_cell(cell, settings=settings(6), timing=TIMING,
                         offset_iterations=5)
        chunked = run_cell(cell, settings=settings(6), timing=TIMING,
                           offset_iterations=5, chunk_size=100)
        np.testing.assert_array_equal(whole.offset.offsets,
                                      chunked.offset.offsets)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            run_cell(tiny_cells()[0], settings=settings(4), timing=TIMING,
                     offset_iterations=4, chunk_size=0)


class TestCompareSchemes:
    def test_mitigation_comparison(self):
        comparison = compare_schemes(
            paper_workload("80r0"), 1e8,
            env=Environment.from_celsius(25.0, 1.0),
            settings=settings(16), offset_iterations=8)
        # The read-0-heavy workload ages the NSSA into a positive mean
        # offset; the switching scheme removes most of that mean.
        assert comparison.nssa.offset.mu > 0.0
        assert abs(comparison.issa.offset.mu) \
            < abs(comparison.nssa.offset.mu)
        assert comparison.mu_removed > 0.0
