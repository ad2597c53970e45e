"""Parallel experiment-grid runner.

The paper's evaluation grids (Tables II-IV, Figures 4-7) are
embarrassingly parallel: every (scheme, workload, time, corner) cell is
an independent Monte-Carlo characterisation.  :func:`run_cells` shards
cells across a ``ProcessPoolExecutor`` while keeping three guarantees:

* **Determinism** — each cell draws its own Monte-Carlo population from
  the per-cell ``McSettings`` seed (common random numbers, exactly as
  the serial loop does), so results do not depend on worker count or
  completion order.
* **Bit-identical serial fallback** — ``workers=1`` (or ``None`` on a
  single-core host) runs the plain in-process loop; parallel runs
  return the same values because the per-cell computation is identical
  and results are re-ordered by submission index.
* **Perf visibility** — workers snapshot their
  :class:`~repro.analysis.perf.PerfRecorder` and the parent merges the
  snapshots, so ``python -m repro perf`` style counters survive the
  process boundary.

Each pool worker gets ``worker_share(pool size)`` CPU slots for the
threads of its fused transients (see
:func:`repro.spice.backends.compiled.cpu_slots`), so a pool never
oversubscribes the machine.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..aging.engine import AgingModel
from ..analysis.perf import PERF
from ..circuits.sense_amp import ReadTiming
from ..constants import FAILURE_RATE_TARGET
from ..spice.backends import compiled, resolve_backend
from ..spice.backends.base import SolverBackend
from .cache import ResultCache
from .experiment import CellResult, ExperimentCell, run_cell
from .montecarlo import McSettings
from .rare_event import EstimatorConfig

#: Callback invoked as each cell starts (serial) or finishes (parallel):
#: ``progress(index, total, cell)``.
ProgressFn = Callable[[int, int, ExperimentCell], None]


class GridCancelled(RuntimeError):
    """A grid run was cancelled through its ``cancel`` event."""


class GridTimeout(TimeoutError):
    """A grid run exceeded its ``timeout`` deadline."""


def _reap(pool: ProcessPoolExecutor, pending) -> None:
    """Tear a pool down *now*: cancel queued work, kill live workers.

    ``ProcessPoolExecutor.__exit__`` waits for every submitted future,
    so a ``KeyboardInterrupt`` (or a timeout/cancel) in the result loop
    would hang until the whole grid finished anyway.  Instead the
    worker processes are terminated and joined so no orphans survive
    the exception.
    """
    # Grab the worker handles first: shutdown() drops the pool's
    # process table, and we still need to terminate/join the children.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for future in pending:
        future.cancel()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def default_workers() -> int:
    """Worker count used when ``workers=None``: one per *usable* CPU.

    ``os.cpu_count()`` reports the machine's cores even when the
    process is pinned to fewer (cgroup CPU limits on CI runners,
    ``taskset``, container quotas), which oversubscribes the pool.
    Prefer the process-aware count (Python 3.13+), then the scheduler
    affinity mask, and only then the raw core count.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        count = counter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def worker_share(consumers: int) -> int:
    """CPU slots per consumer when ``consumers`` pools run side by side.

    The job service runs N claim loops, each of which may open its own
    ``run_cells`` process pool; giving every loop ``default_workers()``
    processes would oversubscribe the machine N-fold.  Dividing the
    usable-CPU count evenly (never below one) keeps the aggregate pool
    at the machine's width regardless of how many consumers share it.
    """
    return max(1, default_workers() // max(1, int(consumers)))


def _pool(size: int) -> ProcessPoolExecutor:
    """A ``size``-process pool whose workers share the CPUs evenly."""
    return ProcessPoolExecutor(max_workers=size,
                               initializer=compiled.set_cpu_slots,
                               initargs=(worker_share(size),))


def _run_cell_task(index: int, cell: ExperimentCell,
                   kwargs: Dict[str, Any],
                   ) -> Tuple[int, CellResult, Dict[str, Any]]:
    """Worker-side cell execution; returns the perf snapshot alongside.

    The worker's recorder is reset first so the snapshot covers exactly
    this cell — the parent merges snapshots from all workers.
    """
    PERF.reset()
    result = run_cell(cell, **kwargs)
    return index, result, PERF.snapshot()


def run_cells(cells: Sequence[ExperimentCell],
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
              backend: Union[SolverBackend, str, None] = None,
              workers: Optional[int] = None,
              progress: Optional[ProgressFn] = None,
              timeout: Optional[float] = None,
              cancel: Optional[Any] = None) -> List[CellResult]:
    """Characterise many cells, optionally across worker processes.

    Parameters
    ----------
    cells:
        The grid cells, in the order results should come back.
    settings / aging / timing / failure_rate / measure_offset /
    measure_delay / offset_iterations / chunk_size / cache / estimator:
        Forwarded to :func:`~repro.core.experiment.run_cell` for every
        cell (identical configuration per cell, like the serial grids).
        A shared ``cache`` is concurrency-safe: the store pickles into
        each worker as a directory path and entries are written with
        atomic renames.
    backend:
        Solver backend for every cell — a registered name, a
        :class:`~repro.spice.backends.base.SolverBackend` instance, or
        ``None`` for environment/default resolution.  Resolved to a
        *name* here (instances hold compiled-kernel handles that do
        not pickle) and re-resolved inside each worker, so parallel
        and serial runs use the same backend.
    workers:
        Process count; ``None`` uses one per CPU, ``<= 1`` runs the
        serial in-process loop (bit-identical fallback).
    progress:
        ``(index, total, cell)`` callback — invoked at cell start when
        serial, at cell completion when parallel.
    timeout:
        Optional wall-clock budget in seconds for the whole grid.  A
        parallel run is torn down pre-emptively (workers terminated)
        when the deadline passes; a serial run checks the deadline at
        cell boundaries.  Raises :class:`GridTimeout`.
    cancel:
        Optional event-like object (``is_set() -> bool``, e.g. a
        ``threading.Event``).  When it becomes set the run stops at
        the next check point — cell boundary when serial, ~10 Hz poll
        when parallel — reaps any worker processes and raises
        :class:`GridCancelled`.  This is the graceful-drain hook the
        job service uses.
    """
    cells = list(cells)
    # Resolve to a plain name before building kwargs: backend instances
    # carry unpicklable state (ctypes handles, jit caches) and each
    # worker process should compile/select its own kernel anyway.
    backend_name = resolve_backend(backend).name
    kwargs: Dict[str, Any] = dict(
        settings=settings, aging=aging, timing=timing,
        failure_rate=failure_rate, measure_offset=measure_offset,
        measure_delay=measure_delay, offset_iterations=offset_iterations,
        chunk_size=chunk_size, cache=cache, estimator=estimator,
        backend=backend_name)
    if workers is None:
        workers = default_workers()
    deadline = (None if timeout is None
                else time.monotonic() + timeout)

    def check_interrupts() -> None:
        if cancel is not None and cancel.is_set():
            raise GridCancelled("grid run cancelled")
        if deadline is not None and time.monotonic() >= deadline:
            raise GridTimeout(f"grid run exceeded {timeout:g} s")

    if workers <= 1 or len(cells) <= 1:
        results = []
        for index, cell in enumerate(cells):
            check_interrupts()
            if progress is not None:
                progress(index, len(cells), cell)
            results.append(run_cell(cell, **kwargs))
        return results

    results_by_index: Dict[int, CellResult] = {}
    pool = _pool(min(workers, len(cells)))
    pending = set()
    try:
        pending = {pool.submit(_run_cell_task, index, cell, kwargs)
                   for index, cell in enumerate(cells)}
        while pending:
            check_interrupts()
            tick: Optional[float] = 0.1 if cancel is not None else None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                tick = remaining if tick is None else min(tick, remaining)
            done, pending = wait(pending, timeout=tick,
                                 return_when=FIRST_COMPLETED)
            for future in done:
                index, result, snapshot = future.result()
                results_by_index[index] = result
                PERF.merge(snapshot)
                if progress is not None:
                    progress(index, len(cells), result.cell)
    except BaseException:
        _reap(pool, pending)
        raise
    pool.shutdown(wait=True)
    return [results_by_index[index] for index in range(len(cells))]


def _run_task(index: int, task: Callable[..., Any], args: Tuple,
              ) -> Tuple[int, Any, Dict[str, Any]]:
    """Worker-side generic task execution (see :func:`_run_cell_task`)."""
    PERF.reset()
    result = task(*args)
    return index, result, PERF.snapshot()


def run_tasks(task: Callable[..., Any], args_list: Sequence[Tuple],
              workers: Optional[int] = None,
              timeout: Optional[float] = None,
              cancel: Optional[Any] = None) -> List[Any]:
    """Deterministic ordered map of ``task`` over argument tuples.

    The generic sibling of :func:`run_cells` for work that is not an
    :class:`ExperimentCell` — e.g. the fleet engine's chunk evaluation.
    ``task`` must be a picklable module-level callable and each entry of
    ``args_list`` a picklable argument tuple.  Guarantees match
    :func:`run_cells`: results come back in submission order, a
    ``workers <= 1`` (or single-task) run is the plain serial loop,
    worker perf snapshots merge into the parent recorder, and
    ``timeout`` / ``cancel`` raise :class:`GridTimeout` /
    :class:`GridCancelled` after reaping the pool.
    """
    args_list = [tuple(args) for args in args_list]
    if workers is None:
        workers = default_workers()
    deadline = (None if timeout is None
                else time.monotonic() + timeout)

    def check_interrupts() -> None:
        if cancel is not None and cancel.is_set():
            raise GridCancelled("task run cancelled")
        if deadline is not None and time.monotonic() >= deadline:
            raise GridTimeout(f"task run exceeded {timeout:g} s")

    if workers <= 1 or len(args_list) <= 1:
        results = []
        for args in args_list:
            check_interrupts()
            results.append(task(*args))
        return results

    results_by_index: Dict[int, Any] = {}
    pool = _pool(min(workers, len(args_list)))
    pending = set()
    try:
        pending = {pool.submit(_run_task, index, task, args)
                   for index, args in enumerate(args_list)}
        while pending:
            check_interrupts()
            tick: Optional[float] = 0.1 if cancel is not None else None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                tick = remaining if tick is None else min(tick, remaining)
            done, pending = wait(pending, timeout=tick,
                                 return_when=FIRST_COMPLETED)
            for future in done:
                index, result, snapshot = future.result()
                results_by_index[index] = result
                PERF.merge(snapshot)
    except BaseException:
        _reap(pool, pending)
        raise
    pool.shutdown(wait=True)
    return [results_by_index[index] for index in range(len(args_list))]
