"""Asynchronous characterisation job service.

The serving layer over the Monte-Carlo characterisation stack: submit
cells as jobs, get batching + dedup + persistence + retries for free.

* :mod:`~repro.service.jobs` — the job/request model: the
  :data:`KINDS` registry of request classes (cell, fleet, array; each
  its own wire schema, identity, executor, result loader and metrics
  block), priorities, lifecycle states;
* :mod:`~repro.service.store` — crash-safe JSONL journal + snapshot
  under ``$REPRO_SERVICE_DIR``, optionally partitioned by the job
  id's hash (:class:`ShardedJobStore`);
* :mod:`~repro.service.scheduler` — dedup against the result cache,
  per-shard priority queues, batch coalescing, worker leases;
* :mod:`~repro.service.worker` — batch execution with timeout, bounded
  jittered-backoff retry and graceful drain, locally
  (:class:`Worker`) or attached over HTTP (:class:`RemoteWorker`);
* :mod:`~repro.service.pool` — N local workers, lease sweeping and
  queue-depth autoscaling (:class:`WorkerPool`);
* :mod:`~repro.service.service` — the :class:`Service` facade;
* :mod:`~repro.service.client` — in-process and HTTP clients;
* :mod:`~repro.service.http_api` — ``python -m repro serve``.
"""

from .client import Client, HttpClient
from .jobs import (ArrayRequest, CANCELLED, DONE, EngineRequest, FAILED,
                   FleetRequest, Job, JobRequest, KINDS, PENDING,
                   RUNNING, STATES, TERMINAL, request_from_dict)
from .pool import WorkerPool
from .scheduler import (AckError, DoubleAckError, Scheduler,
                        StaleLeaseError, UnknownJobError, backoff_delay)
from .service import Service, ServiceError
from .store import (JobStore, SERVICE_ENV, ShardedJobStore,
                    default_service_dir, shard_of)
from .worker import RemoteWorker, Worker, run_batch

__all__ = [
    "AckError", "ArrayRequest", "CANCELLED", "Client", "DONE",
    "DoubleAckError", "EngineRequest",
    "FAILED", "FleetRequest", "HttpClient", "Job", "JobRequest",
    "JobStore", "KINDS", "PENDING", "RUNNING", "RemoteWorker", "SERVICE_ENV",
    "STATES", "Scheduler", "Service", "ServiceError",
    "ShardedJobStore", "StaleLeaseError", "TERMINAL",
    "UnknownJobError", "Worker", "WorkerPool", "backoff_delay",
    "default_service_dir", "request_from_dict", "run_batch",
    "shard_of",
]
