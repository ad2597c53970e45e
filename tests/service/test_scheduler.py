"""Tests for dedup, priorities, batch coalescing and wake-ups."""

import threading
import time

import pytest

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core.cache import ResultCache
from repro.core.calibration import default_mc_settings
from repro.core.experiment import run_cell
from repro.service.jobs import (CANCELLED, DONE, FAILED, JobRequest,
                                PENDING, RUNNING)
from repro.service.scheduler import (LATENCY_BUCKETS_S, Scheduler,
                                     _Histogram)
from repro.service.service import Service
from repro.service.store import JobStore

from .test_leases import FakeClock


def request(**overrides):
    fields = dict(scheme="nssa", workload="80r0", time_s=1e8,
                  mc=8, seed=2017, dt=1e-12, offset_iterations=6)
    fields.update(overrides)
    return JobRequest(**fields)


@pytest.fixture
def scheduler(tmp_path):
    sched = Scheduler(JobStore(tmp_path / "store"),
                      ResultCache(tmp_path / "cache"))
    yield sched
    sched.store.close()


class TestSubmit:
    def test_new_submission_is_pending(self, scheduler):
        job, deduped = scheduler.submit(request())
        assert job.state == PENDING and not deduped
        assert job.id == request().cache_key(scheduler.cache)

    def test_duplicate_submission_dedups(self, scheduler):
        PERF.reset()
        first, _ = scheduler.submit(request())
        second, deduped = scheduler.submit(request())
        assert deduped and second is first
        assert PERF.counters["service.dedup_hits"] == 1
        assert len(scheduler.jobs()) == 1

    def test_dedup_bumps_pending_priority(self, scheduler):
        job, _ = scheduler.submit(request(), priority=0)
        scheduler.submit(request(), priority=9)
        assert job.priority == 9

    def test_different_requests_do_not_dedup(self, scheduler):
        scheduler.submit(request(scheme="nssa"))
        scheduler.submit(request(scheme="issa"))
        assert len(scheduler.jobs()) == 2

    def test_cached_result_short_circuits(self, tmp_path):
        """A submission whose key the result cache already holds is
        done immediately — no queue, no simulation."""
        cache = ResultCache(tmp_path / "cache")
        req = request()
        run_cell(req.to_cell(),
                 settings=default_mc_settings(size=8, seed=2017),
                 timing=ReadTiming(dt=1e-12), offset_iterations=6,
                 cache=cache)
        PERF.reset()
        sched = Scheduler(JobStore(tmp_path / "store"), cache)
        job, deduped = sched.submit(req)
        assert job.state == DONE and job.from_cache and not deduped
        assert job.result_row["spec_mV"] > 0
        assert PERF.counters["service.cache_short_circuits"] == 1
        assert sched.claim_batch() == []
        sched.store.close()

    def test_failed_job_is_revived_on_resubmit(self, scheduler):
        job, _ = scheduler.submit(request())
        scheduler.claim_batch()
        scheduler.fail(job, "boom")
        assert job.state == FAILED
        revived, deduped = scheduler.submit(request())
        assert revived is job and not deduped
        assert revived.state == PENDING
        assert revived.attempts == 0 and revived.error is None


class TestClaiming:
    def test_priority_order_then_fifo(self, scheduler):
        low, _ = scheduler.submit(request(scheme="nssa"), priority=0)
        high, _ = scheduler.submit(request(scheme="issa"), priority=5)
        batch = scheduler.claim_batch(max_batch=1)
        assert batch == [high]
        assert scheduler.claim_batch(max_batch=1) == [low]

    def test_claim_marks_running_and_counts_attempt(self, scheduler):
        job, _ = scheduler.submit(request())
        batch = scheduler.claim_batch()
        assert batch[0].state == RUNNING
        assert batch[0].attempts == 1
        assert batch[0].started_at is not None

    def test_compatible_cells_coalesce_into_one_batch(self, scheduler):
        scheduler.submit(request(scheme="nssa", workload="80r0"))
        scheduler.submit(request(scheme="issa", workload="80r0"))
        scheduler.submit(request(scheme="nssa", workload="20r1"))
        batch = scheduler.claim_batch(max_batch=8)
        assert len(batch) == 3

    def test_incompatible_settings_split_batches(self, scheduler):
        scheduler.submit(request(mc=8))
        scheduler.submit(request(scheme="issa", mc=16))
        assert len(scheduler.claim_batch(max_batch=8)) == 1
        assert len(scheduler.claim_batch(max_batch=8)) == 1

    def test_max_batch_caps_the_claim(self, scheduler):
        for workload in ("80r0", "80r1", "20r0", "20r1"):
            scheduler.submit(request(workload=workload))
        assert len(scheduler.claim_batch(max_batch=2)) == 2
        assert scheduler.pending_count() == 2

    def test_backoff_gate_defers_claims(self, scheduler):
        job, _ = scheduler.submit(request())
        scheduler.claim_batch()
        scheduler.requeue(job, "flaky", delay_s=60.0)
        assert scheduler.claim_batch() == []
        assert scheduler.claim_batch(now=job.not_before + 1) == [job]

    def test_unbatchable_job_claims_alone(self, scheduler):
        first, _ = scheduler.submit(request(workload="80r0"))
        scheduler.submit(request(workload="20r0"))
        scheduler.claim_batch()  # both
        scheduler.requeue(first, "poisoned batch", delay_s=0.0,
                          batchable=False)
        batch = scheduler.claim_batch()
        assert batch == [first] and len(batch) == 1


class TestLifecycle:
    def test_complete_stores_the_row(self, scheduler):
        job, _ = scheduler.submit(request())
        scheduler.claim_batch()
        scheduler.complete(job, {"spec_mV": 100.0})
        assert job.state == DONE and job.result_row == {"spec_mV": 100.0}

    def test_cancel_pending_only(self, scheduler):
        job, _ = scheduler.submit(request())
        assert scheduler.cancel(job.id)
        assert job.state == CANCELLED
        assert not scheduler.cancel(job.id)
        assert not scheduler.cancel("unknown")

    def test_running_job_cannot_be_cancelled(self, scheduler):
        job, _ = scheduler.submit(request())
        scheduler.claim_batch()
        assert not scheduler.cancel(job.id)
        assert job.state == RUNNING

    def test_metrics_counts_states_and_batches(self, scheduler):
        scheduler.submit(request(scheme="nssa"))
        scheduler.submit(request(scheme="issa"))
        scheduler.claim_batch(max_batch=8)
        metrics = scheduler.metrics()
        assert metrics["jobs"] == {"running": 2}
        assert metrics["queue_depth"] == 0
        assert metrics["batches"]["count"] == 1
        assert metrics["batches"]["max_size"] == 2

    def test_state_survives_scheduler_restart(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sched = Scheduler(JobStore(tmp_path / "store"), cache)
        job, _ = sched.submit(request())
        sched.store.close()
        again = Scheduler(JobStore(tmp_path / "store"), cache)
        recovered = again.get(job.id)
        assert recovered is not None and recovered.state == PENDING
        # Sequence numbering continues, so FIFO order is preserved.
        newer, _ = again.submit(request(scheme="issa"))
        assert newer.seq > recovered.seq
        again.store.close()


class TestWakeups:
    """Each journaled transition moves the generation and wakes waiters."""

    def test_every_journaled_transition_bumps_the_generation(
            self, tmp_path):
        clock = FakeClock()
        sched = Scheduler(JobStore(tmp_path / "store"),
                          ResultCache(tmp_path / "cache"), clock=clock,
                          max_attempts=2)
        def bumps(action, *args, **kwargs):
            before = sched.generation()
            action(*args, **kwargs)
            return sched.generation() > before

        assert bumps(sched.submit, request())                # submit
        [job] = sched.jobs()
        assert not bumps(sched.submit, request())            # dedup hit
        assert bumps(sched.submit, request(), priority=5)    # priority
        assert bumps(sched.claim_batch, worker="w", lease_s=10.0)
        assert not bumps(sched.claim_batch, worker="w")      # empty claim
        assert not bumps(sched.renew, "w", [job.id], 10.0)   # heartbeat
        assert bumps(sched.release, "w", job.id, "drain")    # release
        sched.claim_batch(worker="w", lease_s=10.0)
        clock.advance(11.0)
        assert bumps(sched.expire_leases)                    # lease expiry
        sched.claim_batch(worker="w", lease_s=10.0)
        assert bumps(sched.ack_failed, "w", job.id, "flaky", base_s=0.0)
        sched.claim_batch(worker="w", lease_s=10.0)
        assert bumps(sched.ack_done, "w", job.id, {})        # ack
        other, _ = sched.submit(request(scheme="issa"))
        assert bumps(sched.cancel, other.id)                 # cancel
        assert bumps(sched.submit, request(scheme="issa"))   # revive
        sched.claim_batch(worker="w")
        assert bumps(sched.fail, other, "boom")              # fail
        sched.store.close()

    def test_a_missed_transition_returns_at_once(self, scheduler):
        generation = scheduler.generation()
        scheduler.submit(request())
        start = time.monotonic()
        assert scheduler.wait_for_transition(generation, 30.0)
        assert time.monotonic() - start < 1.0

    def test_a_quiet_wait_times_out(self, scheduler):
        generation = scheduler.generation()
        assert not scheduler.wait_for_transition(generation, 0.05)

    def test_a_transition_from_another_thread_wakes_the_wait(
            self, scheduler):
        generation = scheduler.generation()
        timer = threading.Timer(0.1, scheduler.submit, (request(),))
        timer.start()
        start = time.monotonic()
        assert scheduler.wait_for_transition(generation, 30.0)
        assert time.monotonic() - start < 1.0
        timer.join()

    def test_wake_waiters_ends_a_stopped_wait(self, scheduler):
        stop = threading.Event()

        def request_stop():
            stop.set()
            scheduler.wake_waiters()

        timer = threading.Timer(0.1, request_stop)
        timer.start()
        start = time.monotonic()
        assert not scheduler.wait_for_transition(
            scheduler.generation(), 30.0, stop=stop)
        assert time.monotonic() - start < 1.0
        timer.join()


class TestServiceWait:
    @pytest.fixture
    def service(self, tmp_path):
        svc = Service(tmp_path / "svc", autostart=False)
        yield svc
        svc.close()

    def test_returns_on_an_ack_from_another_thread(self, service):
        job = service.submit(request())
        service.scheduler.claim_batch(worker="w", lease_s=None)
        timer = threading.Timer(
            0.2, service.scheduler.ack_done, ("w", job.id, {}))
        start = time.monotonic()
        timer.start()
        doc = service.wait(job.id, timeout=30.0)
        elapsed = time.monotonic() - start
        timer.join()
        assert doc["state"] == DONE
        assert elapsed < 1.2

    def test_raises_at_its_deadline(self, service):
        job = service.submit(request())
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="still pending"):
            service.wait(job.id, timeout=0.2)
        assert 0.2 <= time.monotonic() - start < 2.0


class TestLatencyHistograms:
    def test_jobs_that_ran_are_counted_per_kind(self, tmp_path,
                                                monkeypatch):
        clock = FakeClock()
        sched = Scheduler(JobStore(tmp_path / "store"),
                          ResultCache(tmp_path / "cache"), clock=clock)
        job, _ = sched.submit(request())
        sched.submit(request())                       # dedup: not counted
        clock.advance(0.03)
        sched.claim_batch(worker="w")
        clock.advance(2.5)
        sched.ack_done("w", job.id, {})
        failed, _ = sched.submit(request(scheme="issa"))
        sched.claim_batch(worker="w")
        sched.fail(failed, "boom")                    # failed: not counted
        monkeypatch.setattr(JobRequest, "cached_result_row",
                            lambda self, cache, key: {"spec_mV": 1.0})
        cached, _ = sched.submit(request(seed=1))
        assert cached.from_cache                      # never ran
        latency = sched.metrics()["latency"]
        edges = latency["bucket_edges_s"]
        assert edges == list(LATENCY_BUCKETS_S)
        assert edges[0] == 0.001 and edges[-1] == 100.0
        cell = latency["cell"]
        assert cell["queue_wait"]["count"] == 1
        assert cell["queue_wait"]["sum_s"] == pytest.approx(0.03)
        assert cell["run"]["count"] == 1
        assert cell["run"]["sum_s"] == pytest.approx(2.5)
        # 0.03 s lies in (0.02, 0.05], 2.5 s in (2, 5].
        expect = [0] * (len(edges) + 1)
        expect[edges.index(0.05)] = 1
        assert cell["queue_wait"]["counts"] == expect
        expect = [0] * (len(edges) + 1)
        expect[edges.index(5.0)] = 1
        assert cell["run"]["counts"] == expect
        for kind in ("fleet", "array"):
            assert latency[kind]["run"]["count"] == 0
        sched.store.close()

    def test_out_of_range_values_land_in_the_end_buckets(self):
        hist = _Histogram()
        for seconds in (-1.0, 0.0, 0.001, 100.0, 1e4):
            hist.add(seconds)
        counts = hist.to_dict()["counts"]
        assert counts[0] == 3 and counts[-2] == 1 and counts[-1] == 1
        assert hist.count == 5 and hist.sum_s == pytest.approx(10100.001)

    def test_service_metrics_keep_the_kind_blocks(self, tmp_path):
        svc = Service(tmp_path / "svc", autostart=False)
        try:
            metrics = svc.metrics()
        finally:
            svc.close()
        assert set(metrics["latency"]) == {"bucket_edges_s", "cell",
                                           "fleet", "array"}
        assert "devices" in metrics["fleet"]
        assert "columns" in metrics["array"]
