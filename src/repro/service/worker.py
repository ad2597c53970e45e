"""Worker loops: execute claimed batches with leases, retry, drain.

Two consumers share one execution core (:func:`run_batch`):

* :class:`Worker` — a local background thread over an in-process
  :class:`~repro.service.scheduler.Scheduler`.  Any number of them
  may run against one scheduler; each claims under its own
  ``worker_id`` with a lease and heartbeats while a batch is in
  flight, so a wedged or killed worker's jobs requeue after lease
  expiry (attempt refunded) instead of being lost.
* :class:`RemoteWorker` — the same loop over HTTP: it attaches to a
  ``python -m repro serve`` instance (``python -m repro worker
  --attach URL``), claims with ``/claim``, heartbeats with
  ``/heartbeat`` and reports with ``/ack``.  This is the horizontal
  scale-out path — any host that can reach the service can drain its
  queue.

Failure handling (both loops):

* **Per-batch timeout** — the smallest ``timeout_s`` of the batch
  bounds the whole ``run_cells`` call; a pooled run is torn down
  pre-emptively (worker processes terminated), a serial run stops at
  the next cell boundary.
* **Bounded retry with jittered exponential backoff** — a failed or
  timed-out attempt requeues each job with
  ``retry_base_s * 2**(attempts-1)`` scaled by a uniform factor in
  ``[0.5, 1.5)`` (see
  :func:`~repro.service.scheduler.backoff_delay`) until
  ``max_attempts`` is exhausted, then the job fails for good.  Jobs
  that failed *as part of a multi-cell batch* are retried unbatched,
  so one poisoned cell cannot repeatedly take down its batch mates.
* **Graceful drain** — :meth:`Worker.drain` (the SIGTERM path) lets
  the in-flight batch finish, then exits the loop; :meth:`Worker.stop`
  additionally fires the ``cancel`` event through ``run_cells``, which
  reaps the pool and releases the interrupted batch untouched (the
  attempt is not charged).
* **Stale acks** — every completion goes through the scheduler's
  lease-validated ack; if this worker's lease expired mid-run and the
  job was handed to someone else, the late ack is dropped (counted as
  ``service.stale_acks``) instead of overwriting the winner's result.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, List, Optional

from ..analysis.perf import PERF
from ..core.cache import ResultCache
from ..core.parallel import GridCancelled, GridTimeout
from ..spice.backends import compiled
from .jobs import Job
from .scheduler import AckError, Scheduler

#: Batch executor signature: ``runner(jobs, timeout_s, cancel) -> rows``
#: returning one result row (plain dict) per job, in order.
RunnerFn = Callable[[List[Job], Optional[float], threading.Event],
                    List[Dict]]

_worker_ids = itertools.count(1)


def batch_timeout(batch: List[Job]) -> Optional[float]:
    """The binding per-batch deadline: the smallest requested timeout."""
    timeouts = [job.request.timeout_s for job in batch
                if job.request.timeout_s is not None]
    return min(timeouts) if timeouts else None


def run_batch(batch: List[Job], cache: Optional[ResultCache],
              pool_workers: Optional[int],
              timeout: Optional[float],
              cancel: threading.Event) -> List[Dict]:
    """Execute one claimed batch; returns a result row per job.

    The default executor for local and remote workers alike: the
    batch's job kind runs it (see :mod:`~repro.service.jobs`).  Full
    results persist through ``cache``.
    """
    return batch[0].request.execute(batch, cache, pool_workers,
                                    timeout, cancel)


class Worker(threading.Thread):
    """Background batch executor over a scheduler.

    Parameters
    ----------
    scheduler / cache:
        Shared state; results are persisted through ``cache`` by the
        ``run_cells`` call itself, so the full payload outlives the
        row summary kept on the job.
    pool_workers:
        Process count handed to ``run_cells`` per batch (1 = in-thread
        serial; timeouts then only take effect at cell boundaries).
    max_batch:
        Upper bound on coalesced jobs per claim.
    retry_base_s:
        First-retry backoff; doubles per attempt, jittered.
    runner:
        Override the batch executor (tests inject failures/delays).
    poll_s:
        Longest idle wait after an empty claim.  Any journaled job
        transition wakes the worker at once; this bounds only how late
        a retry is picked up once its backoff gate (``not_before``)
        opens, since a gate opens with time, not with a transition.
    worker_id:
        Claim identity; auto-numbered ``local-N`` when omitted.
    lease_s:
        Lease duration on claimed jobs; heartbeats renew at a third of
        this period while a batch is in flight.  ``None`` disables
        leasing (jobs are held until this process dies).
    cpu_slots:
        CPU slots for the fused-transient threads of in-thread batches
        (:func:`~repro.spice.backends.compiled.set_thread_cpu_slots`);
        ``None`` keeps the process's.
    """

    def __init__(self, scheduler: Scheduler, cache: ResultCache,
                 pool_workers: Optional[int] = 1, max_batch: int = 8,
                 retry_base_s: float = 0.5,
                 runner: Optional[RunnerFn] = None,
                 poll_s: float = 0.05,
                 worker_id: Optional[str] = None,
                 lease_s: Optional[float] = 30.0,
                 cpu_slots: Optional[int] = None) -> None:
        self.worker_id = worker_id or f"local-{next(_worker_ids)}"
        super().__init__(name=f"repro-service-{self.worker_id}",
                         daemon=True)
        self.scheduler = scheduler
        self.cache = cache
        self.pool_workers = pool_workers
        self.max_batch = max_batch
        self.retry_base_s = retry_base_s
        self.poll_s = poll_s
        self.lease_s = lease_s
        self.cpu_slots = cpu_slots
        self.runner: RunnerFn = runner or self._run_batch_runner
        self._draining = threading.Event()
        self._cancel = threading.Event()
        self._inflight_lock = threading.Lock()
        self._inflight: List[str] = []

    # -- lifecycle -------------------------------------------------------

    def run(self) -> None:
        compiled.set_thread_cpu_slots(self.cpu_slots)
        heartbeat = None
        if self.lease_s is not None:
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name=f"{self.name}-heartbeat", daemon=True)
            heartbeat.start()
        try:
            while not self._draining.is_set():
                # Read before the claim, so a submit landing between an
                # empty claim and the wait is not missed.
                generation = self.scheduler.generation()
                batch = self.scheduler.claim_batch(
                    self.max_batch, worker=self.worker_id,
                    lease_s=self.lease_s)
                if not batch:
                    self.scheduler.wait_for_transition(
                        generation, self.poll_s, stop=self._draining)
                    continue
                self._execute(batch)
        finally:
            if heartbeat is not None:
                heartbeat.join(timeout=5.0)

    def _heartbeat_loop(self) -> None:
        period = max(0.01, self.lease_s / 3.0)
        while not self._draining.wait(period):
            with self._inflight_lock:
                held = list(self._inflight)
            if held:
                self.scheduler.renew(self.worker_id, held, self.lease_s)

    def request_drain(self) -> None:
        """Ask the loop to stop after the in-flight batch (no join)."""
        self._draining.set()
        self.scheduler.wake_waiters()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Finish the in-flight batch, then stop; True when joined."""
        self.request_drain()
        if self.is_alive():
            self.join(timeout)
        return not self.is_alive()

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Hard stop: cancel the in-flight batch and exit."""
        self._cancel.set()
        self.request_drain()
        if self.is_alive():
            self.join(timeout)
        return not self.is_alive()

    # -- execution -------------------------------------------------------

    def _set_inflight(self, job_ids: List[str]) -> None:
        with self._inflight_lock:
            self._inflight = job_ids

    def _execute(self, batch: List[Job]) -> None:
        timeout = batch_timeout(batch)
        self._set_inflight([job.id for job in batch])
        try:
            with PERF.timer("service.batch"):
                rows = self.runner(batch, timeout, self._cancel)
        except GridCancelled:
            # Drain/stop path: hand the batch back untouched; the
            # interruption is not the jobs' fault.
            for job in batch:
                self._checked(self.scheduler.release, job.id,
                              "cancelled mid-run by service shutdown")
        except GridTimeout:
            PERF.count("service.timeouts")
            self._retry_or_fail(batch, f"timed out after {timeout:g} s")
        except Exception as exc:  # noqa: BLE001 — worker must survive
            self._retry_or_fail(batch, repr(exc))
        else:
            for job, row in zip(batch, rows):
                self._checked(self.scheduler.ack_done, job.id, row)
        finally:
            self._set_inflight([])

    def _checked(self, ack, job_id: str, *args, **kwargs) -> None:
        """Apply an ack, dropping it when the lease moved on."""
        try:
            ack(self.worker_id, job_id, *args, **kwargs)
        except AckError:
            pass  # counted by the scheduler; the winner's result stands

    def _retry_or_fail(self, batch: List[Job], error: str) -> None:
        for job in batch:
            self._checked(
                self.scheduler.ack_failed, job.id, error,
                base_s=self.retry_base_s,
                # Retry multi-job batches one by one so a single
                # poisoned cell stops sinking its batch mates.
                batchable=False if len(batch) > 1 else None)

    def _run_batch_runner(self, batch: List[Job],
                          timeout: Optional[float],
                          cancel: threading.Event) -> List[Dict]:
        return run_batch(batch, self.cache, self.pool_workers,
                         timeout, cancel)


class RemoteWorker:
    """A worker attached to a remote service over its HTTP API.

    The claim/heartbeat/ack loop of :class:`Worker`, with the
    scheduler on the far side of ``/claim``, ``/heartbeat`` and
    ``/ack``.  Results are computed locally (this host needs the repro
    stack, not the service's disk): the result *row* travels back in
    the ack, and the full payload persists into this worker's
    ``cache`` — point ``--cache-dir`` at shared storage to give the
    service's direct readers the complete result.

    Parameters
    ----------
    client:
        An :class:`~repro.service.client.HttpClient` or a base URL.
    worker_id:
        Claim identity; defaults to ``remote-<host>-<pid>``.
    exit_when_idle:
        Return from :meth:`run_forever` on the first empty claim
        (batch mode — lets CI attach, drain, exit).
    """

    def __init__(self, client, worker_id: Optional[str] = None,
                 cache: Optional[ResultCache] = None,
                 pool_workers: Optional[int] = 1, max_batch: int = 8,
                 poll_s: float = 0.5, lease_s: float = 60.0,
                 exit_when_idle: bool = False) -> None:
        from .client import HttpClient
        if isinstance(client, str):
            client = HttpClient(client)
        self.client = client
        if worker_id is None:
            import os
            import socket
            worker_id = f"remote-{socket.gethostname()}-{os.getpid()}"
        self.worker_id = worker_id
        self.cache = cache
        self.pool_workers = pool_workers
        self.max_batch = max_batch
        self.poll_s = poll_s
        self.lease_s = lease_s
        self.exit_when_idle = exit_when_idle
        self._stop = threading.Event()
        self._inflight_lock = threading.Lock()
        self._inflight: List[str] = []
        self.batches_run = 0
        self.jobs_done = 0

    def stop(self) -> None:
        """Request exit; the in-flight batch is cancelled and released."""
        self._stop.set()

    def _heartbeat_loop(self) -> None:
        from .service import ServiceError
        period = max(0.01, self.lease_s / 3.0)
        while not self._stop.wait(period):
            with self._inflight_lock:
                held = list(self._inflight)
            if held:
                try:
                    self.client.heartbeat(self.worker_id, held,
                                          self.lease_s)
                except (ServiceError, OSError):
                    pass  # transient; the lease rides out one miss

    def run_forever(self) -> int:
        """Claim and execute until stopped (or idle, in batch mode).

        Returns the number of jobs completed.
        """
        from .service import ServiceError
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="repro-remote-heartbeat",
                                     daemon=True)
        heartbeat.start()
        try:
            while not self._stop.is_set():
                try:
                    docs = self.client.claim(self.worker_id,
                                             max_batch=self.max_batch,
                                             lease_s=self.lease_s)
                except (ServiceError, OSError):
                    if self.exit_when_idle:
                        break
                    self._stop.wait(self.poll_s)
                    continue
                if not docs:
                    if self.exit_when_idle:
                        break
                    self._stop.wait(self.poll_s)
                    continue
                self._execute([Job.from_dict(doc) for doc in docs])
        finally:
            self._stop.set()
            heartbeat.join(timeout=5.0)
        return self.jobs_done

    def _execute(self, batch: List[Job]) -> None:
        from .service import ServiceError
        timeout = batch_timeout(batch)
        with self._inflight_lock:
            self._inflight = [job.id for job in batch]
        try:
            with PERF.timer("service.batch"):
                rows = run_batch(batch, self.cache, self.pool_workers,
                                 timeout, self._stop)
        except GridCancelled:
            for job in batch:
                self._ack_quietly(self.client.ack_release, job.id,
                                  "released: remote worker stopping")
        except GridTimeout:
            PERF.count("service.timeouts")
            for job in batch:
                self._ack_quietly(
                    self.client.ack_error, job.id,
                    f"timed out after {timeout:g} s",
                    batchable=False if len(batch) > 1 else None)
        except Exception as exc:  # noqa: BLE001 — worker must survive
            for job in batch:
                self._ack_quietly(
                    self.client.ack_error, job.id, repr(exc),
                    batchable=False if len(batch) > 1 else None)
        else:
            self.batches_run += 1
            for job, row in zip(batch, rows):
                if self._ack_quietly(self.client.ack_done, job.id, row):
                    self.jobs_done += 1
        finally:
            with self._inflight_lock:
                self._inflight = []

    def _ack_quietly(self, ack, job_id: str, *args, **kwargs) -> bool:
        from .service import ServiceError
        try:
            ack(self.worker_id, job_id, *args, **kwargs)
            return True
        except (ServiceError, OSError):
            PERF.count("service.remote_ack_drops")
            return False
