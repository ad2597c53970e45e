"""Submission intake, dedup, sharded queue, leases, batches, wake-ups.

The scheduler owns the in-memory job table (backed by the persistent
:class:`~repro.service.store.JobStore` /
:class:`~repro.service.store.ShardedJobStore`) and makes five
decisions:

* **Dedup on submit.**  A job's id *is* the content-addressed
  :class:`~repro.core.cache.ResultCache` key of its request, so a
  resubmission of in-flight or completed work returns the existing job
  instead of queuing a second simulation.  If the result cache already
  holds the key, the job completes instantly without ever queuing
  (``from_cache``).
* **Sharding.**  The job table is partitioned by the id's hash, one
  lock and one journal per shard.  Identical requests hash to the
  same shard, so dedup stays exact; different shards submit, claim
  and fsync concurrently.
* **Priority order.**  Pending work is claimed highest-priority first,
  FIFO within a priority (monotonic submission sequence).  A claim
  scans shards round-robin and coalesces up to ``max_batch`` pending
  jobs sharing the head's request signature (same Monte-Carlo /
  timing / measurement configuration) *within that shard*, so the
  worker amortises them over one
  :func:`~repro.core.parallel.run_cells` invocation.
* **Leases.**  A claim leases its jobs to the named worker until
  ``lease_s`` from now; heartbeats (:meth:`renew`) extend the lease
  and :meth:`expire_leases` requeues jobs whose worker went silent —
  the attempt is refunded, a dead worker is not the job's fault.
  Completion goes through :meth:`ack_done` / :meth:`ack_failed`,
  which verify the acking worker still holds the lease; a double ack
  or an ack from a superseded worker raises instead of corrupting the
  journal.
* **Wake-ups.**  Every journaled transition (submit, revive, claim,
  ack, requeue, release, lease expiry, cancel, fail) bumps a
  generation counter and notifies one condition, so an idle consumer
  blocks in :meth:`wait_for_transition` instead of polling and claims
  as soon as there is something to claim.

All public methods are thread-safe; the HTTP frontend and any number
of worker loops share a scheduler instance.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.perf import PERF
from ..core.cache import ResultCache
from .jobs import (CANCELLED, DONE, FAILED, KINDS, Job, PENDING,
                   Request, RUNNING, TERMINAL)
from .store import JobStore

#: Upper bucket edges (seconds) of the ``/metrics`` latency histograms:
#: a 1-2-5 series from 1 ms to 100 s.  ``counts[i]`` holds the values
#: in ``(edges[i-1], edges[i]]``; one last count holds those above
#: 100 s.
LATENCY_BUCKETS_S = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2,
                     0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


class AckError(RuntimeError):
    """An ack the scheduler cannot apply (see subclasses)."""


class UnknownJobError(AckError):
    """Acked a job id the scheduler has never seen."""


class DoubleAckError(AckError):
    """Acked a job that already reached a terminal state."""


class StaleLeaseError(AckError):
    """Acked a job whose lease the worker no longer holds (it expired
    and was requeued, possibly claimed by someone else)."""


def backoff_delay(attempts: int, base_s: float,
                  rng: Optional[random.Random] = None) -> float:
    """Jittered exponential backoff for retry ``attempts`` (1-based).

    ``base_s * 2**(attempts-1)`` scaled by a uniform factor in
    ``[0.5, 1.5)``.  Without the jitter, batch-mates requeued by one
    shared failure all become claimable at the same instant and
    stampede the scheduler in lockstep on every retry round.
    """
    delay = base_s * 2 ** (max(1, attempts) - 1)
    if rng is None:
        return delay
    return delay * (0.5 + rng.random())


class _Histogram:
    """Count, sum and :data:`LATENCY_BUCKETS_S` counts of durations."""

    __slots__ = ("count", "sum_s", "counts")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.counts = [0] * (len(LATENCY_BUCKETS_S) + 1)

    def add(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        self.count += 1
        self.sum_s += seconds
        self.counts[bisect.bisect_left(LATENCY_BUCKETS_S, seconds)] += 1

    def to_dict(self) -> Dict:
        return {"count": self.count, "sum_s": self.sum_s,
                "counts": list(self.counts)}


class _Shard:
    """One partition: its job table, lock and journal."""

    __slots__ = ("index", "store", "jobs", "lock")

    def __init__(self, index: int, store: JobStore) -> None:
        self.index = index
        self.store = store
        self.jobs: Dict[str, Job] = {}
        self.lock = threading.RLock()


class Scheduler:
    """Thread-safe sharded job table with dedup, leases and batching."""

    def __init__(self, store, cache: ResultCache,
                 max_attempts: int = 3,
                 clock=time.time,
                 retry_base_s: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        self.store = store
        self.cache = cache
        self.max_attempts = max_attempts
        self.clock = clock
        self.retry_base_s = retry_base_s
        self.rng = rng if rng is not None else random.Random()
        # A plain JobStore is a 1-shard store; ShardedJobStore brings
        # its own partitions and router.
        stores = list(getattr(store, "shards", None) or [store])
        self._route = getattr(store, "shard_of", None) or (lambda _: 0)
        self._shards = [_Shard(index, shard_store)
                        for index, shard_store in enumerate(stores)]
        jobs, self._seq = store.recover()
        for job in jobs.values():
            self._shards[self._route(job.id)].jobs[job.id] = job
        self._seq_lock = threading.Lock()
        self._rotor = 0
        # Transition generation for idle waiters.  Lock order: a shard
        # lock may be held while taking the condition's lock (see
        # _record), never the other way round.
        self._transitions = threading.Condition(threading.Lock())
        self._generation = 0
        # Batch / lease statistics for /metrics.
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._batched_jobs = 0
        self._max_batch_size = 0
        self._lease_expiries = 0
        self._lease_renewals = 0
        self._stale_acks = 0
        self._double_acks = 0
        # Queue-wait and run histograms of the jobs that ran, per kind.
        self._latency = {kind: {"queue_wait": _Histogram(),
                                "run": _Histogram()}
                         for kind in KINDS}

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _shard(self, job_id: str) -> _Shard:
        return self._shards[self._route(job_id)]

    def _next_seq(self) -> int:
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
            return seq

    # -- intake ----------------------------------------------------------

    def submit(self, request: Request,
               priority: int = 0) -> Tuple[Job, bool]:
        """Register ``request``; returns ``(job, deduped)``.

        ``deduped`` is True when an equivalent live or completed job
        absorbed the submission.  A terminal *failed* or *cancelled*
        job is revived instead (fresh attempt budget) — resubmitting
        is the retry-escalation path.
        """
        key = request.cache_key(self.cache)
        shard = self._shard(key)
        with shard.lock:
            PERF.count("service.submissions")
            job = shard.jobs.get(key)
            if job is not None and job.state not in (FAILED, CANCELLED):
                if job.state == PENDING and priority > job.priority:
                    job.priority = priority
                    self._record(shard, job)
                PERF.count("service.dedup_hits")
                return job, True
            if job is not None:
                # Revive the failed/cancelled job under its identity.
                job.state = PENDING
                job.priority = max(job.priority, priority)
                job.attempts = 0
                job.not_before = 0.0
                job.batchable = True
                job.error = None
                job.started_at = None
                job.finished_at = None
                job.worker = None
                job.lease_expires_at = None
                self._record(shard, job)
                return job, False
            job = Job(id=key, request=request, seq=self._next_seq(),
                      priority=priority, max_attempts=self.max_attempts,
                      submitted_at=self.clock())
            row = request.cached_result_row(self.cache, key)
            if row is not None:
                job.state = DONE
                job.from_cache = True
                job.finished_at = self.clock()
                job.result_row = row
                PERF.count("service.cache_short_circuits")
            shard.jobs[key] = job
            self._record(shard, job)
            return job, False

    # -- claiming --------------------------------------------------------

    def claim_batch(self, max_batch: int = 8,
                    now: Optional[float] = None,
                    worker: str = "local",
                    lease_s: Optional[float] = None) -> List[Job]:
        """Claim the next compatible batch of pending jobs (may be []).

        Shards are scanned round-robin from a rotating start index so
        concurrent workers spread across partitions instead of
        contending for the same head-of-line shard.  Within the chosen
        shard the head is the highest-priority eligible pending job
        and the rest of the batch fills with eligible jobs sharing its
        request signature.  Claimed jobs transition to ``running``
        with their attempt counted and (when ``lease_s`` is given) a
        lease to ``worker``; expired leases encountered during the
        scan are requeued first, so a crashed consumer's work is
        reclaimable at once — the requeue is a recorded transition,
        which wakes every idle worker.
        """
        now = self.clock() if now is None else now
        with self._stats_lock:
            start = self._rotor
            self._rotor = (self._rotor + 1) % len(self._shards)
        for offset in range(len(self._shards)):
            shard = self._shards[(start + offset) % len(self._shards)]
            batch = self._claim_from_shard(shard, max_batch, now,
                                           worker, lease_s)
            if batch:
                return batch
        return []

    def _claim_from_shard(self, shard: _Shard, max_batch: int,
                          now: float, worker: str,
                          lease_s: Optional[float]) -> List[Job]:
        with shard.lock:
            self._expire_shard_leases(shard, now)
            eligible = [job for job in shard.jobs.values()
                        if job.state == PENDING and job.not_before <= now]
            if not eligible:
                return []
            eligible.sort(key=Job.sort_key)
            head = eligible[0]
            batch = [head]
            if head.batchable:
                signature = head.request.signature()
                for job in eligible[1:]:
                    if len(batch) >= max_batch:
                        break
                    if job.batchable \
                            and job.request.signature() == signature:
                        batch.append(job)
            for job in batch:
                job.state = RUNNING
                job.started_at = now
                job.attempts += 1
                job.worker = worker
                job.lease_expires_at = (now + lease_s
                                        if lease_s is not None else None)
                self._record(shard, job)
            with self._stats_lock:
                self._batches += 1
                self._batched_jobs += len(batch)
                self._max_batch_size = max(self._max_batch_size,
                                           len(batch))
            PERF.count("service.batches")
            PERF.count("service.batched_jobs", len(batch))
            return batch

    # -- leases ----------------------------------------------------------

    def renew(self, worker: str, job_ids: Iterable[str],
              lease_s: float) -> int:
        """Heartbeat: extend the lease on each still-held job.

        Returns the number renewed.  In-memory only — lease expiry is
        not a durability concern (a restart requeues ``running`` jobs
        anyway), so heartbeats cost no journal fsync.
        """
        renewed = 0
        now = self.clock()
        for job_id in job_ids:
            shard = self._shard(job_id)
            with shard.lock:
                job = shard.jobs.get(job_id)
                if job is not None and job.state == RUNNING \
                        and job.worker == worker \
                        and job.lease_expires_at is not None:
                    job.lease_expires_at = now + lease_s
                    renewed += 1
        if renewed:
            with self._stats_lock:
                self._lease_renewals += renewed
            PERF.count("service.lease_renewals", renewed)
        return renewed

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Requeue running jobs whose lease lapsed; returns the count.

        The attempt is *refunded* — the worker died, the job did not
        fail — so lease churn never burns the retry budget.
        """
        now = self.clock() if now is None else now
        expired = 0
        for shard in self._shards:
            with shard.lock:
                expired += self._expire_shard_leases(shard, now)
        return expired

    def _expire_shard_leases(self, shard: _Shard, now: float) -> int:
        expired = 0
        for job in shard.jobs.values():
            if job.state == RUNNING \
                    and job.lease_expires_at is not None \
                    and job.lease_expires_at <= now:
                worker = job.worker
                job.state = PENDING
                job.attempts = max(0, job.attempts - 1)
                job.started_at = None
                job.worker = None
                job.lease_expires_at = None
                job.not_before = now
                job.error = (f"lease expired; worker {worker!r} "
                             f"presumed dead")
                self._record(shard, job)
                expired += 1
        if expired:
            with self._stats_lock:
                self._lease_expiries += expired
            PERF.count("service.lease_expiries", expired)
        return expired

    # -- acked completion (the multi-worker protocol) --------------------

    def _checked_ack(self, shard: _Shard, worker: str,
                     job_id: str) -> Job:
        """Validate that ``worker`` may ack ``job_id`` (lock held)."""
        job = shard.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        if job.state in TERMINAL:
            with self._stats_lock:
                self._double_acks += 1
            PERF.count("service.double_acks")
            raise DoubleAckError(
                f"job {job_id} already {job.state}; double ack "
                f"from worker {worker!r}")
        if job.state != RUNNING or job.worker != worker:
            with self._stats_lock:
                self._stale_acks += 1
            PERF.count("service.stale_acks")
            raise StaleLeaseError(
                f"job {job_id} is {job.state} and leased to "
                f"{job.worker!r}, not {worker!r} — the lease expired "
                f"and the job was requeued")
        return job

    def ack_done(self, worker: str, job_id: str,
                 result_row: Dict) -> Job:
        """Worker ``worker`` finished ``job_id`` with ``result_row``."""
        shard = self._shard(job_id)
        with shard.lock:
            job = self._checked_ack(shard, worker, job_id)
            job.state = DONE
            job.finished_at = self.clock()
            job.error = None
            job.result_row = result_row
            job.worker = None
            job.lease_expires_at = None
            self._record(shard, job)
            self._observe_run(job)
            PERF.count("service.jobs_done")
            self._maybe_snapshot(shard)
            return job

    def ack_failed(self, worker: str, job_id: str, error: str,
                   base_s: Optional[float] = None,
                   batchable: Optional[bool] = None) -> Job:
        """Worker ``worker`` failed ``job_id``: retry or fail for good.

        Applies the bounded jittered-backoff retry policy: while
        attempts remain the job requeues with
        :func:`backoff_delay` (``base_s`` defaults to the scheduler's
        ``retry_base_s``); once ``max_attempts`` is exhausted it fails
        terminally.
        """
        shard = self._shard(job_id)
        with shard.lock:
            job = self._checked_ack(shard, worker, job_id)
            if job.attempts >= job.max_attempts:
                job.state = FAILED
                job.finished_at = self.clock()
                job.error = (f"{error} (attempt {job.attempts}/"
                             f"{job.max_attempts})")
                job.worker = None
                job.lease_expires_at = None
                self._record(shard, job)
                PERF.count("service.jobs_failed")
                self._maybe_snapshot(shard)
                return job
            delay = backoff_delay(job.attempts,
                                  self.retry_base_s if base_s is None
                                  else base_s, self.rng)
            job.state = PENDING
            job.error = error
            job.not_before = self.clock() + delay
            if batchable is not None:
                job.batchable = batchable
            job.worker = None
            job.lease_expires_at = None
            self._record(shard, job)
            PERF.count("service.retries")
            return job

    def release(self, worker: str, job_id: str, reason: str) -> Job:
        """Hand a claimed job back untouched (drain/shutdown path).

        The attempt is refunded: the interruption is not the job's
        fault.  Lease validation matches the ack paths.
        """
        shard = self._shard(job_id)
        with shard.lock:
            job = self._checked_ack(shard, worker, job_id)
            job.state = PENDING
            job.attempts = max(0, job.attempts - 1)
            job.started_at = None
            job.error = reason
            job.not_before = 0.0
            job.worker = None
            job.lease_expires_at = None
            self._record(shard, job)
            return job

    def _observe_run(self, job: Job) -> None:
        """Add a job acked done to its kind's latency histograms."""
        spans = self._latency[job.request.KIND]
        with self._stats_lock:
            spans["queue_wait"].add(job.started_at - job.submitted_at)
            spans["run"].add(job.finished_at - job.started_at)

    # -- direct completion (single-owner callers, e.g. tests) ------------

    def complete(self, job: Job, result_row: Dict) -> None:
        shard = self._shard(job.id)
        with shard.lock:
            job.state = DONE
            job.finished_at = self.clock()
            job.error = None
            job.result_row = result_row
            job.worker = None
            job.lease_expires_at = None
            self._record(shard, job)
            PERF.count("service.jobs_done")
            self._maybe_snapshot(shard)

    def requeue(self, job: Job, error: str, delay_s: float,
                batchable: Optional[bool] = None) -> None:
        """Send a failed attempt back to the queue with a backoff gate."""
        shard = self._shard(job.id)
        with shard.lock:
            job.state = PENDING
            job.error = error
            job.not_before = self.clock() + delay_s
            if batchable is not None:
                job.batchable = batchable
            job.worker = None
            job.lease_expires_at = None
            self._record(shard, job)
            PERF.count("service.retries")

    def fail(self, job: Job, error: str) -> None:
        shard = self._shard(job.id)
        with shard.lock:
            job.state = FAILED
            job.finished_at = self.clock()
            job.error = error
            job.worker = None
            job.lease_expires_at = None
            self._record(shard, job)
            PERF.count("service.jobs_failed")
            self._maybe_snapshot(shard)

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job; running/terminal jobs are not touched."""
        shard = self._shard(job_id)
        with shard.lock:
            job = shard.jobs.get(job_id)
            if job is None or job.state != PENDING:
                return False
            job.state = CANCELLED
            job.finished_at = self.clock()
            self._record(shard, job)
            PERF.count("service.jobs_cancelled")
            return True

    # -- queries ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        shard = self._shard(job_id)
        with shard.lock:
            return shard.jobs.get(job_id)

    def jobs(self) -> List[Job]:
        out: List[Job] = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.jobs.values())
        return out

    def pending_count(self) -> int:
        count = 0
        for shard in self._shards:
            with shard.lock:
                count += sum(1 for j in shard.jobs.values()
                             if j.state == PENDING)
        # Refresh the advisory gauge here — the pool's control loop
        # polls this every tick — rather than on every submit/claim,
        # which would put an O(jobs) scan on the intake hot path.
        PERF.gauge("service.queue_depth", count)
        return count

    def metrics(self) -> Dict:
        counts: Dict[str, int] = {}
        per_shard = []
        for shard in self._shards:
            with shard.lock:
                shard_counts: Dict[str, int] = {}
                for job in shard.jobs.values():
                    shard_counts[job.state] = \
                        shard_counts.get(job.state, 0) + 1
                per_shard.append({
                    "shard": shard.index,
                    "pending": shard_counts.get(PENDING, 0),
                    "running": shard_counts.get(RUNNING, 0),
                    "jobs": sum(shard_counts.values()),
                })
                for state, n in shard_counts.items():
                    counts[state] = counts.get(state, 0) + n
        with self._stats_lock:
            batches = {
                "count": self._batches,
                "jobs": self._batched_jobs,
                "max_size": self._max_batch_size,
                "mean_size": (self._batched_jobs / self._batches
                              if self._batches else 0.0),
            }
            leases = {
                "expiries": self._lease_expiries,
                "renewals": self._lease_renewals,
                "stale_acks": self._stale_acks,
                "double_acks": self._double_acks,
            }
            latency = {"bucket_edges_s": list(LATENCY_BUCKETS_S)}
            latency.update(
                (kind, {name: hist.to_dict()
                        for name, hist in spans.items()})
                for kind, spans in self._latency.items())
        return {
            "jobs": counts,
            "queue_depth": counts.get(PENDING, 0),
            "shards": per_shard,
            "batches": batches,
            "leases": leases,
            "latency": latency,
            "store": self.store.stats(),
        }

    # -- wake-ups --------------------------------------------------------

    def generation(self) -> int:
        """The count of journaled transitions so far.

        Read it *before* looking at the queue, then hand it to
        :meth:`wait_for_transition`: a transition that lands between
        the look and the wait has already moved the count, so the wait
        returns at once instead of missing it.
        """
        with self._transitions:
            return self._generation

    def wait_for_transition(self, generation: int,
                            timeout: Optional[float],
                            stop: Optional[threading.Event] = None
                            ) -> bool:
        """Block until a transition after ``generation`` is recorded.

        Returns True when one was, False when ``timeout`` (``None``
        waits without limit) ran out or ``stop`` was set first;
        :meth:`wake_waiters` makes a waiter recheck ``stop``.
        """
        with self._transitions:
            self._transitions.wait_for(
                lambda: self._generation != generation
                or (stop is not None and stop.is_set()),
                timeout)
            return self._generation != generation

    def wake_waiters(self) -> None:
        """Wake every waiter to recheck its ``stop`` event."""
        with self._transitions:
            self._transitions.notify_all()

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.store.write_snapshot(shard.jobs)

    def close(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.store.write_snapshot(shard.jobs)
                shard.store.close()

    def _record(self, shard: _Shard, job: Job) -> None:
        job.touch()
        shard.store.record(job)
        with self._transitions:
            self._generation += 1
            self._transitions.notify_all()

    def _maybe_snapshot(self, shard: _Shard) -> None:
        if shard.store.should_snapshot():
            shard.store.write_snapshot(shard.jobs)

