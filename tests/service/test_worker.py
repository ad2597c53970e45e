"""Tests for the worker loop: retries, backoff, timeout, drain.

The batch executor is injected (``runner=``), so these tests exercise
the failure machinery without simulating circuits.
"""

import threading
import time

import pytest

from repro.analysis.perf import PERF
from repro.core.cache import ResultCache
from repro.core.parallel import GridTimeout
from repro.service.jobs import (ArrayRequest, DONE, FAILED, FleetRequest,
                                Job, JobRequest, PENDING)
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore
from repro.service.worker import Worker, run_batch

from .test_leases import FakeClock


def request(**overrides):
    fields = dict(scheme="nssa", workload="80r0", time_s=1e8,
                  mc=8, seed=2017, dt=1e-12, offset_iterations=6)
    fields.update(overrides)
    return JobRequest(**fields)


@pytest.fixture
def scheduler(tmp_path):
    sched = Scheduler(JobStore(tmp_path / "store"),
                      ResultCache(tmp_path / "cache"), max_attempts=2)
    yield sched
    sched.store.close()


def run_worker(scheduler, runner, **kwargs):
    worker = Worker(scheduler, scheduler.cache, runner=runner,
                    retry_base_s=0.01, poll_s=0.005, **kwargs)
    worker.start()
    return worker


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestSuccess:
    def test_batch_completes_jobs_in_order(self, scheduler):
        calls = []

        def runner(batch, timeout, cancel):
            calls.append([job.request.workload for job in batch])
            return [{"workload": job.request.workload} for job in batch]

        a, _ = scheduler.submit(request(workload="80r0"))
        b, _ = scheduler.submit(request(workload="20r0"))
        worker = run_worker(scheduler, runner)
        wait_for(lambda: a.terminal and b.terminal)
        worker.drain(timeout=5)
        assert a.state == DONE and a.result_row == {"workload": "80r0"}
        assert b.state == DONE and b.result_row == {"workload": "20r0"}
        assert calls == [["80r0", "20r0"]]  # one coalesced batch


class TestRetries:
    def test_flaky_runner_retries_with_backoff_then_succeeds(
            self, scheduler):
        attempts = []

        def runner(batch, timeout, cancel):
            attempts.append(time.monotonic())
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return [{} for _ in batch]

        PERF.reset()
        job, _ = scheduler.submit(request())
        worker = run_worker(scheduler, runner)
        wait_for(lambda: job.terminal)
        worker.drain(timeout=5)
        assert job.state == DONE
        assert len(attempts) == 2
        assert PERF.counters["service.retries"] == 1

    def test_permanent_failure_exhausts_attempts(self, scheduler):
        def runner(batch, timeout, cancel):
            raise RuntimeError("broken forever")

        job, _ = scheduler.submit(request())
        worker = run_worker(scheduler, runner)
        wait_for(lambda: job.terminal)
        worker.drain(timeout=5)
        assert job.state == FAILED
        assert job.attempts == 2  # max_attempts of the fixture
        assert "broken forever" in job.error
        assert "attempt 2/2" in job.error

    def test_timeout_counts_and_retries(self, scheduler):
        def runner(batch, timeout, cancel):
            raise GridTimeout(f"exceeded {timeout:g} s")

        PERF.reset()
        job, _ = scheduler.submit(request(timeout_s=0.01))
        worker = run_worker(scheduler, runner)
        wait_for(lambda: job.terminal)
        worker.drain(timeout=5)
        assert job.state == FAILED
        assert PERF.counters["service.timeouts"] == 2
        assert "timed out" in job.error

    def test_failed_multi_job_batch_retries_unbatched(self, scheduler):
        batch_sizes = []

        def runner(batch, timeout, cancel):
            batch_sizes.append(len(batch))
            if len(batch) > 1:
                raise RuntimeError("one bad cell poisons the batch")
            return [{} for _ in batch]

        a, _ = scheduler.submit(request(workload="80r0"))
        b, _ = scheduler.submit(request(workload="20r0"))
        worker = run_worker(scheduler, runner)
        wait_for(lambda: a.terminal and b.terminal)
        worker.drain(timeout=5)
        assert a.state == DONE and b.state == DONE
        assert batch_sizes[0] == 2
        assert set(batch_sizes[1:]) == {1}

    def test_min_timeout_of_the_batch_applies(self, scheduler):
        seen = []

        def runner(batch, timeout, cancel):
            seen.append(timeout)
            return [{} for _ in batch]

        a, _ = scheduler.submit(request(workload="80r0", timeout_s=5.0))
        b, _ = scheduler.submit(request(workload="20r0", timeout_s=5.0))
        worker = run_worker(scheduler, runner)
        wait_for(lambda: a.terminal and b.terminal)
        worker.drain(timeout=5)
        assert seen == [5.0]


class TestDrain:
    def test_drain_finishes_inflight_batch(self, scheduler):
        release = threading.Event()
        started = threading.Event()

        def runner(batch, timeout, cancel):
            started.set()
            release.wait(5.0)
            return [{} for _ in batch]

        job, _ = scheduler.submit(request())
        worker = run_worker(scheduler, runner)
        started.wait(5.0)
        drained = []
        thread = threading.Thread(
            target=lambda: drained.append(worker.drain(timeout=10)))
        thread.start()
        release.set()
        thread.join(timeout=10)
        assert drained == [True]
        assert job.state == DONE

    def test_drained_worker_leaves_pending_work_queued(self, scheduler):
        worker = run_worker(scheduler, lambda *a: [])
        worker.drain(timeout=5)
        job, _ = scheduler.submit(request())
        time.sleep(0.05)
        assert job.state == PENDING


class TestEngineWorkersCap:
    """A request's ``workers`` never fans out past the host's CPUs.

    The engine is replaced by a recorder, so no process starts.
    """

    REQUESTS = {
        "fleet": lambda workers: FleetRequest(
            spec={"n_devices": 64, "block_size": 64, "years": [1.0],
                  "phases_per_year": 2, "reads_per_phase": 64},
            policies=({"scheme": "nssa"},), workers=workers),
        "array": lambda workers: ArrayRequest(
            spec={"rows": 16, "columns": 2, "mc": 4,
                  "offset_iterations": 4}, workers=workers),
    }

    @pytest.mark.parametrize("kind", ["fleet", "array"])
    @pytest.mark.parametrize("workers, used", [(64, 3), (None, 3),
                                               (3, 3), (1, 1)])
    def test_capped_at_default_workers(self, monkeypatch, kind,
                                       workers, used):
        import repro.array
        import repro.core.parallel
        import repro.fleet

        seen = []

        class Recorder:
            def __init__(self, spec, workers, chunk_size):
                seen.append(workers)

            def compare(self, items, timeout, cancel):
                return {"items": len(items)}

        monkeypatch.setattr(repro.core.parallel, "default_workers",
                            lambda: 3)
        monkeypatch.setattr(repro.fleet, "FleetEngine", Recorder)
        monkeypatch.setattr(repro.array, "ArrayEngine", Recorder)
        job = Job(id="j", request=self.REQUESTS[kind](workers))
        rows = run_batch([job], None, 1, None, threading.Event())
        assert seen == [used]
        assert rows and rows[0]["items"] >= 1


class TestDispatch:
    """An idle worker claims on the next job transition, not a poll.

    Every worker here polls at most every 30 s, and every wait is
    bounded well below that, so a polling worker fails the test
    instead of hanging it.
    """

    IDLE_POLL_S = 30.0

    @staticmethod
    def idle_worker(scheduler, runner):
        """Start a 30 s-poll worker and wait for its first empty claim."""
        claims = []
        claim_batch = scheduler.claim_batch

        def counting_claim(*args, **kwargs):
            batch = claim_batch(*args, **kwargs)
            claims.append(len(batch))
            return batch

        scheduler.claim_batch = counting_claim
        worker = Worker(scheduler, scheduler.cache, runner=runner,
                        poll_s=TestDispatch.IDLE_POLL_S)
        worker.start()
        wait_for(lambda: claims and claims[-1] == 0, timeout=5.0)
        return worker

    @staticmethod
    def park(scheduler):
        """Submit a job and lease it to another worker."""
        job, _ = scheduler.submit(request())
        assert scheduler.claim_batch(worker="other", lease_s=30.0) == [job]
        return job

    def test_submit_to_an_idle_worker_runs_at_once(self, scheduler):
        worker = self.idle_worker(scheduler, lambda b, t, c: [{}] * len(b))
        job, _ = scheduler.submit(request())
        wait_for(lambda: job.state == DONE, timeout=2.0)
        worker.drain(timeout=5)

    def test_submit_between_empty_claim_and_wait_is_not_lost(
            self, tmp_path):
        class LateSubmit(Scheduler):
            """Submits once inside a claim that comes back empty."""

            late = None

            def claim_batch(self, *args, **kwargs):
                batch = super().claim_batch(*args, **kwargs)
                if not batch and self.late is None:
                    self.late, _ = self.submit(request())
                return batch

        sched = LateSubmit(JobStore(tmp_path / "store"),
                           ResultCache(tmp_path / "cache"))
        worker = Worker(sched, sched.cache, poll_s=self.IDLE_POLL_S,
                        runner=lambda b, t, c: [{}] * len(b))
        worker.start()
        try:
            wait_for(lambda: sched.late is not None
                     and sched.late.state == DONE, timeout=2.0)
        finally:
            worker.drain(timeout=5)
            sched.store.close()

    def test_lease_expiry_wakes_an_idle_worker(self, tmp_path):
        clock = FakeClock()
        sched = Scheduler(JobStore(tmp_path / "store"),
                          ResultCache(tmp_path / "cache"), clock=clock)
        job = self.park(sched)
        worker = self.idle_worker(sched, lambda b, t, c: [{}] * len(b))
        try:
            clock.advance(31.0)
            assert sched.expire_leases() == 1
            wait_for(lambda: job.state == DONE, timeout=2.0)
        finally:
            worker.drain(timeout=5)
            sched.store.close()

    def test_release_wakes_an_idle_worker(self, scheduler):
        job = self.park(scheduler)
        worker = self.idle_worker(scheduler, lambda b, t, c: [{}] * len(b))
        scheduler.release("other", job.id, "handed back")
        wait_for(lambda: job.state == DONE, timeout=2.0)
        worker.drain(timeout=5)

    def test_revival_of_a_failed_job_wakes_an_idle_worker(
            self, scheduler):
        job = self.park(scheduler)
        scheduler.fail(job, "boom")
        worker = self.idle_worker(scheduler, lambda b, t, c: [{}] * len(b))
        again, deduped = scheduler.submit(request())
        assert again is job and not deduped
        wait_for(lambda: job.state == DONE, timeout=2.0)
        worker.drain(timeout=5)

    @pytest.mark.parametrize("how", ["drain", "stop"])
    def test_idle_worker_stops_promptly(self, scheduler, how):
        worker = self.idle_worker(scheduler, lambda b, t, c: [])
        start = time.monotonic()
        assert getattr(worker, how)(timeout=5.0)
        assert time.monotonic() - start < 1.0


    def test_many_workers_and_submitters_lose_no_wakeup(self, scheduler):
        """More workers than cores, bursts from several threads and a
        short switch interval: every job still runs, once, long before
        any 30 s idle wait could have picked it up."""
        import sys

        ran = []
        ran_lock = threading.Lock()

        def runner(batch, timeout, cancel):
            with ran_lock:
                ran.extend(job.id for job in batch)
            return [{} for _ in batch]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = []
        try:
            workers = [Worker(scheduler, scheduler.cache, runner=runner,
                              poll_s=self.IDLE_POLL_S, max_batch=2)
                       for _ in range(6)]
            for worker in workers:
                worker.start()

            def burst(base):
                for seed in range(base, base + 10):
                    scheduler.submit(request(seed=seed))
                    time.sleep(0.001)

            submitters = [threading.Thread(target=burst, args=(100 * k,))
                          for k in range(4)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=5.0)
            wait_for(lambda: all(job.state == DONE
                                 for job in scheduler.jobs())
                     and len(scheduler.jobs()) == 40, timeout=10.0)
        finally:
            sys.setswitchinterval(switch)
            for worker in workers:
                worker.request_drain()
            for worker in workers:
                worker.drain(timeout=5.0)
        assert sorted(ran) == sorted(job.id for job in scheduler.jobs())
        assert not any(worker.is_alive() for worker in workers)
