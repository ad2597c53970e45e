"""The characterisation service facade: store + scheduler + workers.

A :class:`Service` wires the persistent (optionally sharded) job
store, the dedup/batching/lease scheduler and the autoscaling local
worker pool into one object with the lifecycle the frontends (Python
:class:`~repro.service.client.Client`, HTTP
:mod:`~repro.service.http_api`) build on::

    with Service(directory, cache=ResultCache.default(),
                 workers=4, n_shards=4) as svc:
        job = svc.submit(JobRequest(scheme="issa", workload="80r0",
                                    time_s=1e8, mc=64))
        svc.wait(job.id)
        print(svc.result(job.id).row())

Results are persisted in the content-addressed result cache (the same
store ``run_cell --cache`` uses), so a service answer is bit-identical
to the equivalent direct call and survives restarts; the job record
additionally carries the paper-table row for cheap status queries.
Remote workers (``python -m repro worker --attach URL``) drain the
same queue over HTTP — see
:class:`~repro.service.worker.RemoteWorker`.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Dict, Optional, Union

from ..analysis.perf import PERF
from ..core.cache import ResultCache
from ..core.parallel import worker_share
from ..spice.backends import backend_host_info
from .jobs import KINDS, Job, Request, TERMINAL, request_from_dict
from .pool import WorkerPool
from .scheduler import Scheduler
from .store import ShardedJobStore, default_service_dir
from .worker import RunnerFn


class ServiceError(RuntimeError):
    """A request the service cannot honour (unknown job, not done)."""


class Service:
    """Asynchronous characterisation job service (in-process).

    Parameters
    ----------
    directory:
        Job-store directory; default ``$REPRO_SERVICE_DIR`` or
        ``~/.cache/repro/service``.
    cache:
        Result cache shared with direct ``run_cell`` users; defaults
        to ``<directory>/results`` so the service is self-contained.
    workers / max_workers / autoscale / high_water / idle_retire_s:
        Local worker-pool size and scaling policy (see
        :class:`~repro.service.pool.WorkerPool`).  ``workers`` is the
        floor (and the fixed size without ``autoscale``).
    n_shards:
        Job-store partitions (see
        :class:`~repro.service.store.ShardedJobStore`); 1 keeps the
        legacy flat layout.
    lease_s:
        Claim lease duration; a worker that stops heartbeating for
        this long has its jobs requeued with the attempt refunded.
    pool_workers / max_batch / max_attempts / retry_base_s:
        Per-worker batch-execution configuration (see
        :class:`~repro.service.worker.Worker` and
        :class:`~repro.service.scheduler.Scheduler`).
        ``pool_workers=None`` divides the machine's CPUs across
        ``max_workers`` concurrent batch runs
        (:func:`~repro.core.parallel.worker_share`).
    runner:
        Batch-executor override for tests.
    autostart:
        Start the worker pool immediately (set False to stage jobs,
        e.g. for recovery tests).
    """

    def __init__(self,
                 directory: Optional[Union[str, pathlib.Path]] = None,
                 cache: Optional[ResultCache] = None,
                 pool_workers: Optional[int] = 1, max_batch: int = 8,
                 max_attempts: int = 3, retry_base_s: float = 0.5,
                 snapshot_every: int = 256,
                 runner: Optional[RunnerFn] = None,
                 autostart: bool = True,
                 workers: int = 1,
                 max_workers: Optional[int] = None,
                 autoscale: bool = False,
                 high_water: int = 8,
                 idle_retire_s: float = 5.0,
                 n_shards: int = 1,
                 lease_s: Optional[float] = 30.0) -> None:
        directory = pathlib.Path(directory) if directory is not None \
            else default_service_dir()
        self.cache = cache if cache is not None \
            else ResultCache(directory / "results")
        self.store = ShardedJobStore(directory, n_shards=n_shards,
                                     snapshot_every=snapshot_every)
        self.scheduler = Scheduler(self.store, self.cache,
                                   max_attempts=max_attempts,
                                   retry_base_s=retry_base_s)
        self.pool = WorkerPool(
            self.scheduler, self.cache,
            workers=workers, max_workers=max_workers,
            autoscale=autoscale, high_water=high_water,
            idle_retire_s=idle_retire_s,
            pool_workers=(pool_workers if pool_workers is not None
                          else worker_share(
                              max_workers if max_workers is not None
                              else workers)),
            max_batch=max_batch, retry_base_s=retry_base_s,
            runner=runner, lease_s=lease_s)
        self.started_at = time.time()
        if autostart:
            self.start()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Service":
        self.pool.start()
        return self

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish in-flight batches, snapshot."""
        joined = self.pool.drain(timeout)
        self.scheduler.close()
        return joined

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Hard shutdown: cancel in-flight work, snapshot, close."""
        self.pool.stop(timeout)
        self.scheduler.close()

    # -- the five client verbs ------------------------------------------

    def submit(self, request: Union[Request, Dict[str, Any]],
               priority: int = 0) -> Job:
        """Queue work of any kind; dedups against live/cached work.

        Accepts a request object or its wire document (``"kind"``
        picks the class from :data:`~repro.service.jobs.KINDS`).
        Returns the (possibly pre-existing) job; ``job.deduped`` is not
        a field — inspect :meth:`submit_info` when the flag matters
        (the HTTP layer reports it).
        """
        job, _ = self.submit_info(request, priority)
        return job

    def submit_info(self, request: Union[Request, Dict[str, Any]],
                    priority: int = 0):
        if isinstance(request, dict):
            request = request_from_dict(request)
        request.validate()  # reject bad requests before queuing
        return self.scheduler.submit(request, priority)

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's full record as a plain dict."""
        job = self.scheduler.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job.to_dict()

    def result(self, job_id: str):
        """The completed job's result payload, as its kind loads it.

        Cell jobs return a :class:`~repro.core.experiment.CellResult`;
        fleet and array jobs return the comparison document (a plain
        dict).  Raises :class:`ServiceError` while the job is still
        live or once it failed/was cancelled.
        """
        job = self.scheduler.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} is {job.state}"
                + (f": {job.error}" if job.error else ""))
        return job.request.load_result(self.cache, job)

    def cancel(self, job_id: str) -> bool:
        return self.scheduler.cancel(job_id)

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job reaches a terminal state.

        Sleeps on the scheduler's transition wake-up, not a poll: every
        journaled transition (a terminal ack among them) wakes the wait
        to recheck the job.  Raises :class:`TimeoutError` once
        ``timeout`` seconds pass first.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            generation = self.scheduler.generation()
            doc = self.status(job_id)
            if doc["state"] in TERMINAL:
                return doc
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0.0:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after "
                    f"{timeout:g} s")
            self.scheduler.wait_for_transition(generation, remaining)

    # -- the worker protocol (claim / heartbeat / ack) -------------------

    def claim(self, worker: str, max_batch: int = 8,
              lease_s: Optional[float] = 60.0) -> list:
        """Claim a batch for a (remote) worker; returns job dicts."""
        batch = self.scheduler.claim_batch(max_batch, worker=worker,
                                           lease_s=lease_s)
        PERF.count("service.remote_claims", 1 if batch else 0)
        return [job.to_dict() for job in batch]

    def heartbeat(self, worker: str, job_ids: list,
                  lease_s: float = 60.0) -> int:
        """Renew a worker's leases; returns the count renewed."""
        return self.scheduler.renew(worker, job_ids, lease_s)

    # -- observability ---------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Queue/batch/dedup/lease/cache/perf counters for ``/metrics``."""
        perf = PERF.snapshot()
        counters = perf["counters"]
        requests = counters.get("cache.requests", 0)
        blocks = {name: kind.metrics_block(perf)
                  for name, kind in KINDS.items()}
        doc = self.scheduler.metrics()
        doc.update({
            "uptime_s": time.time() - self.started_at,
            "worker_alive": self.pool.is_alive(),
            "workers": self.pool.metrics(),
            "dedup": {
                "submissions": counters.get("service.submissions", 0),
                "hits": counters.get("service.dedup_hits", 0),
                "cache_short_circuits":
                    counters.get("service.cache_short_circuits", 0),
            },
            "retries": counters.get("service.retries", 0),
            "timeouts": counters.get("service.timeouts", 0),
            **{name: block for name, block in blocks.items()
               if block is not None},
            "cache": dict(self.cache.stats(),
                          hit_rate=(counters.get("cache.hits", 0)
                                    / requests if requests else 0.0)),
            "backend": backend_host_info(),
            "perf": perf,
        })
        return doc
