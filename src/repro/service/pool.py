"""Local worker pool: N claim loops, lease sweeping, autoscaling.

A :class:`WorkerPool` owns the service's in-process
:class:`~repro.service.worker.Worker` threads plus one control thread
that does the periodic housekeeping a multi-consumer queue needs:

* **lease sweeping** — :meth:`Scheduler.expire_leases` requeues jobs
  whose worker (local *or* remote) stopped heartbeating, refunding
  the attempt;
* **autoscaling** (opt-in) — queue depth above ``high_water`` spawns
  another worker up to ``max_workers``; an empty queue sustained for
  ``idle_retire_s`` retires one worker at a time back down to
  ``min_workers``.  Scaling decisions are depth-driven, not
  rate-driven, so a burst of 10k submissions fans out immediately and
  a drained pool shrinks back to its floor.

The pool presents the same ``start`` / ``drain`` / ``stop`` /
``is_alive`` surface as a single :class:`Worker`, so the
:class:`~repro.service.service.Service` facade drives one object
regardless of scale.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..analysis.perf import PERF
from ..core.cache import ResultCache
from ..core.parallel import worker_share
from .scheduler import Scheduler
from .worker import RunnerFn, Worker


class WorkerPool:
    """Autoscaling collection of local claim-loop workers.

    Parameters
    ----------
    scheduler / cache:
        Shared with every worker.
    workers:
        Initial worker count — also the autoscale floor.  0 runs no
        local workers at all (a coordinator for remote workers).
    max_workers:
        Autoscale ceiling; defaults to ``workers`` (fixed-size pool)
        unless ``autoscale`` is set, in which case it defaults to
        4x the floor.
    autoscale:
        Enable depth-driven scaling between the floor and ceiling.
    high_water:
        Pending-job depth above which another worker spawns.
    idle_retire_s:
        How long the queue must stay empty before one worker retires.
    tick_s:
        Control-loop period (lease sweep + scaling decision).
    worker_kwargs:
        Everything a :class:`Worker` takes (``pool_workers``,
        ``max_batch``, ``retry_base_s``, ``runner``, ``poll_s`` — the
        longest idle wait, since any job transition wakes an idle
        worker — and ``lease_s``).
    """

    def __init__(self, scheduler: Scheduler, cache: ResultCache,
                 workers: int = 1, max_workers: Optional[int] = None,
                 autoscale: bool = False, high_water: int = 8,
                 idle_retire_s: float = 5.0, tick_s: float = 0.25,
                 **worker_kwargs) -> None:
        self.scheduler = scheduler
        self.cache = cache
        # A zero floor is the remote-only coordinator: no local
        # execution, but the control loop still sweeps leases for
        # workers attached over HTTP.
        self.min_workers = max(0, int(workers))
        if max_workers is None:
            max_workers = max(1, 4 * self.min_workers) if autoscale \
                else self.min_workers
        self.max_workers = max(self.min_workers, int(max_workers))
        self.autoscale = autoscale
        self.high_water = high_water
        self.idle_retire_s = idle_retire_s
        self.tick_s = tick_s
        self.worker_kwargs = worker_kwargs
        self._workers: List[Worker] = []
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._control: Optional[threading.Thread] = None
        self._idle_since: Optional[float] = None
        self._spawned = 0
        self._retired = 0
        self._sweep_expired = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._lock:
            self._draining.clear()
            while len(self._alive_locked()) < self.min_workers:
                self._spawn_locked()
        if self._control is None or not self._control.is_alive():
            self._control = threading.Thread(
                target=self._control_loop,
                name="repro-service-pool-control", daemon=True)
            self._control.start()
        return self

    def is_alive(self) -> bool:
        with self._lock:
            return bool(self._alive_locked())

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Let in-flight batches finish, then stop every worker."""
        self._draining.set()
        self._join_control()
        joined = True
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            worker.request_drain()
        for worker in workers:
            joined = worker.drain(timeout) and joined
        return joined

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Hard stop: cancel in-flight batches and stop every worker."""
        self._draining.set()
        self._join_control()
        joined = True
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            worker.request_drain()
            worker._cancel.set()
        for worker in workers:
            joined = worker.stop(timeout) and joined
        return joined

    # -- scaling ---------------------------------------------------------

    def _alive_locked(self) -> List[Worker]:
        self._workers = [w for w in self._workers if w.is_alive()]
        return self._workers

    def _spawn_locked(self) -> Worker:
        # Consumers run side by side in this process: each gets an even
        # share of the CPUs for its fused-transient threads.
        worker = Worker(self.scheduler, self.cache,
                        cpu_slots=worker_share(self.max_workers),
                        **self.worker_kwargs)
        worker.start()
        self._workers.append(worker)
        self._spawned += 1
        PERF.count("service.workers_spawned")
        return worker

    def _retire_one_locked(self) -> None:
        if len(self._alive_locked()) <= self.min_workers:
            return
        # Newest first: the floor workers keep their long-lived ids.
        self._workers[-1].request_drain()
        self._retired += 1
        PERF.count("service.workers_retired")

    def _control_loop(self) -> None:
        import time
        while not self._draining.wait(self.tick_s):
            self._sweep_expired += self.scheduler.expire_leases()
            depth = self.scheduler.pending_count()
            if self.autoscale:
                now = time.monotonic()
                with self._lock:
                    alive = len(self._alive_locked())
                    if depth > self.high_water \
                            and alive < self.max_workers:
                        self._spawn_locked()
                        self._idle_since = None
                    elif depth == 0:
                        if self._idle_since is None:
                            self._idle_since = now
                        elif now - self._idle_since >= self.idle_retire_s:
                            self._retire_one_locked()
                            self._idle_since = now
                    else:
                        self._idle_since = None
            with self._lock:
                PERF.gauge("service.active_workers",
                           len(self._alive_locked()))

    def _join_control(self) -> None:
        control = self._control
        if control is not None and control.is_alive() \
                and control is not threading.current_thread():
            control.join(timeout=5.0)

    # -- observability ---------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        with self._lock:
            alive = self._alive_locked()
            return {
                "active": len(alive),
                "ids": [w.worker_id for w in alive],
                "min": self.min_workers,
                "max": self.max_workers,
                "autoscale": self.autoscale,
                "spawned": self._spawned,
                "retired": self._retired,
                "lease_expiries_swept": self._sweep_expired,
            }
