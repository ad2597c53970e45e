"""End-to-end smoke tests for the stdlib HTTP frontend."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import HttpClient, Service, ServiceError
from repro.service.http_api import make_server
from repro.service.jobs import request_from_dict


def request_fields(**overrides):
    fields = dict(scheme="nssa", workload="80r0", time_s=1e8,
                  mc=8, seed=2017, dt=1e-12, offset_iterations=6)
    fields.update(overrides)
    return fields


@pytest.fixture
def server(tmp_path):
    service = Service(directory=tmp_path)
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = HttpClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, httpd
    httpd.shutdown()
    thread.join(timeout=5)
    httpd.server_close()
    service.close()


class TestEndpoints:
    def test_healthz(self, server):
        client, _ = server
        assert client.healthy()

    def test_submit_wait_result(self, server):
        client, _ = server
        job_id = client.submit(**request_fields())
        doc = client.wait(job_id, timeout=60)
        assert doc["state"] == "done"
        row = client.result(job_id)["row"]
        assert row["scheme"] == "NSSA"
        assert row["spec_mV"] > 0
        assert row["sigma_mV"] > 0

    def test_submit_dedups_over_http(self, server):
        client, _ = server
        first = client.submit(**request_fields())
        second = client.submit(**request_fields())
        assert first == second

    def test_result_conflict_while_not_done(self, server):
        client, httpd = server
        # Park the worker so the job provably stays pending.
        httpd.service.pool.drain(timeout=5)
        job_id = client.submit(**request_fields(mc=16))
        # Asking for the result early is a 409, not a 500.
        with pytest.raises(ServiceError, match="pending"):
            client.result(job_id)

    def test_unknown_job_is_404(self, server):
        client, _ = server
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("no-such-job")

    def test_invalid_request_is_400(self, server):
        client, _ = server
        with pytest.raises(ServiceError, match="scheme"):
            client.submit(scheme="bogus")

    def test_unknown_route_is_404(self, server):
        client, _ = server
        with pytest.raises(ServiceError):
            client._call("GET", "/nope")

    def test_metrics_payload(self, server):
        client, _ = server
        job_id = client.submit(**request_fields())
        client.wait(job_id, timeout=60)
        metrics = client.metrics()
        assert metrics["jobs"]["done"] >= 1
        assert metrics["queue_depth"] == 0
        assert metrics["batches"]["count"] >= 1
        assert metrics["dedup"]["submissions"] >= 1
        assert "cache" in metrics and "hit_rate" in metrics["cache"]
        assert metrics["perf"]["counters"]["cell.runs"] >= 1
        assert metrics["store"]["directory"]

    def test_cancel_endpoint(self, server):
        client, httpd = server
        # Stop the worker so the job stays pending and is cancellable.
        httpd.service.pool.drain(timeout=5)
        job_id = client.submit(**request_fields(mc=16, seed=99))
        assert client.cancel(job_id)
        assert client.status(job_id)["state"] == "cancelled"

    def test_shutdown_endpoint_requests_drain(self, server):
        client, httpd = server
        assert client.shutdown()["draining"]
        assert httpd.shutdown_requested.wait(timeout=1)

class TestWorkerProtocol:
    """The remote-worker intake: /claim, /heartbeat, /ack."""

    def _park_and_submit(self, server, **overrides):
        client, httpd = server
        httpd.service.pool.drain(timeout=5)
        return client, client.submit(**request_fields(**overrides))

    def test_claim_heartbeat_ack_roundtrip(self, server):
        client, job_id = self._park_and_submit(server, mc=16)
        [doc] = client.claim("w1", max_batch=4, lease_s=60.0)
        assert doc["id"] == job_id
        assert doc["state"] == "running" and doc["worker"] == "w1"
        assert client.heartbeat("w1", [job_id], lease_s=60.0) == 1
        acked = client.ack_done("w1", job_id, {"spec_mV": 1.0})
        assert acked["state"] == "done"
        assert client.status(job_id)["result_row"] == {"spec_mV": 1.0}

    def test_empty_claim_returns_no_jobs(self, server):
        client, _ = server
        assert client.claim("w1") == []

    def test_malformed_claim_is_400(self, server):
        client, _ = server
        with pytest.raises(ServiceError, match="worker"):
            client._call("POST", "/claim", body={"max_batch": 2})
        with pytest.raises(ServiceError, match="max_batch"):
            client._call("POST", "/claim",
                         body={"worker": "w1", "max_batch": 0})
        with pytest.raises(ServiceError, match="lease_s"):
            client._call("POST", "/claim",
                         body={"worker": "w1", "lease_s": -1})

    def test_ack_without_outcome_is_400(self, server):
        client, job_id = self._park_and_submit(server, mc=16, seed=3)
        client.claim("w1")
        with pytest.raises(ServiceError, match="one of"):
            client._call("POST", "/ack",
                         body={"worker": "w1", "id": job_id})

    def test_double_ack_is_409(self, server):
        client, job_id = self._park_and_submit(server, mc=16, seed=5)
        client.claim("w1")
        client.ack_done("w1", job_id, {"spec_mV": 1.0})
        with pytest.raises(ServiceError, match="double ack"):
            client.ack_done("w1", job_id, {"spec_mV": 2.0})

    def test_stale_lease_ack_is_409(self, server):
        client, job_id = self._park_and_submit(server, mc=16, seed=7)
        [doc] = client.claim("w1", lease_s=0.05)
        assert doc["id"] == job_id
        import time
        time.sleep(0.1)  # lease lapses; the next claim sweeps it
        [doc] = client.claim("w2", lease_s=60.0)
        assert doc["id"] == job_id
        with pytest.raises(ServiceError, match="leased to"):
            client.ack_done("w1", job_id, {"spec_mV": 1.0})
        # The winner's ack still lands.
        assert client.ack_done("w2", job_id,
                               {"spec_mV": 2.0})["state"] == "done"

    def test_ack_unknown_job_is_404(self, server):
        client, _ = server
        with pytest.raises(ServiceError, match="unknown job"):
            client.ack_done("w1", "no-such-job", {})

    def test_ack_error_requeues_with_backoff(self, server):
        client, job_id = self._park_and_submit(server, mc=16, seed=9)
        client.claim("w1")
        doc = client.ack_error("w1", job_id, "boom", batchable=False)
        assert doc["state"] == "pending" and doc["attempts"] == 1
        assert client.status(job_id)["error"] == "boom"

    def test_ack_release_refunds_the_attempt(self, server):
        client, job_id = self._park_and_submit(server, mc=16, seed=11)
        client.claim("w1")
        doc = client.ack_release("w1", job_id, "worker stopping")
        assert doc["state"] == "pending" and doc["attempts"] == 0

    def test_metrics_report_shards_leases_and_workers(self, server):
        client, _ = server
        metrics = client.metrics()
        assert "shards" in metrics and "leases" in metrics
        assert "active" in metrics["workers"]


class TestRemoteWorker:
    def test_remote_worker_drains_the_queue(self, server, tmp_path):
        """An attached worker claims, simulates locally and acks the
        row back; the service serves it like local work."""
        from repro.core.cache import ResultCache
        from repro.service.worker import RemoteWorker
        client, httpd = server
        httpd.service.pool.drain(timeout=5)
        job_id = client.submit(**request_fields())
        worker = RemoteWorker(client, worker_id="rw-test",
                              cache=ResultCache(tmp_path / "wcache"),
                              exit_when_idle=True)
        assert worker.run_forever() == 1
        doc = client.status(job_id)
        assert doc["state"] == "done"
        assert doc["result_row"]["spec_mV"] > 0
        assert client.result(job_id)["row"]["spec_mV"] > 0


MALFORMED = [
    dict(time_s=float("nan")),
    dict(temp_c=float("inf")),
    dict(vdd=float("-inf")),
    dict(dt=float("nan")),
    dict(dt=-1e-12),
    dict(dt=0.0),
    dict(mc=0),
    dict(mc=-3),
    dict(offset_iterations=0),
    dict(chunk_size=0),
    dict(timeout_s=float("nan")),
]


class TestMalformedCells:
    """Cell requests the worker cannot run are refused at submit."""

    @pytest.mark.parametrize("bad", MALFORMED,
                             ids=lambda bad: "-".join(map(str, *bad.items())))
    def test_rejected_by_validate_and_http(self, server, bad):
        with pytest.raises(ValueError):
            request_from_dict(request_fields(**bad)).validate()
        assert_submit_refused(server[0], request_fields(**bad))


def assert_submit_refused(client, doc):
    """A raw ``POST /submit`` of ``doc`` gets 400 and queues no job."""
    req = urllib.request.Request(
        client.base_url + "/submit", data=json.dumps(doc).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(req, timeout=10)
    assert caught.value.code == 400
    assert client.metrics()["jobs"] == {}


NAN, INF = float("nan"), float("inf")


def fleet_fields(part=None, name=None, value=None):
    """A small fleet request with one field of ``part`` overridden."""
    doc = {"kind": "fleet",
           "spec": {"n_devices": 64, "block_size": 64, "years": [1.0],
                    "phases_per_year": 2, "reads_per_phase": 64},
           "policies": [{"scheme": "nssa"}]}
    if part == "spec":
        doc["spec"][name] = value
    elif part == "policy":
        doc["policies"][0][name] = value
    elif part == "request":
        doc[name] = value
    return doc


def array_fields(part=None, name=None, value=None):
    """A small array request with one field of ``part`` overridden."""
    doc = {"kind": "array",
           "spec": {"rows": 64, "columns": 2, "mc": 4,
                    "offset_iterations": 4}}
    if part == "spec":
        doc["spec"][name] = value
    elif part == "request":
        doc[name] = value
    return doc


MALFORMED_FLEETS = [
    ("spec", "swing_mv", NAN),
    ("spec", "swing_mv", INF),
    ("spec", "temps_c", [[NAN, 1.0]]),
    ("spec", "temps_c", [[25.0, NAN]]),
    ("spec", "vdds", [[NAN, 1.0]]),
    ("spec", "years", [INF]),
    ("policy", "rejuvenation_interval_years", NAN),
    ("policy", "rejuvenation_interval_years", INF),
    ("request", "timeout_s", NAN),
    ("spec", "temps_c", [[-300.0, 1.0]]),
    ("spec", "vdds", [[-1.0, 1.0]]),
    ("spec", "vdds", [[0.0, 1.0]]),
    ("request", "workers", 0),
    ("request", "workers", -2),
    ("request", "workers", 2.5),
    ("request", "chunk_size", 2.5),
]

MALFORMED_ARRAYS = [
    ("spec", "temp_c", NAN),
    ("spec", "vdd", NAN),
    ("spec", "vdd", INF),
    ("spec", "swing_mv", NAN),
    ("spec", "noise_margin_mv", NAN),
    ("spec", "times_s", [0.0, NAN]),
    ("request", "timeout_s", INF),
    ("request", "workers", 0),
    ("request", "workers", -2),
    ("request", "workers", "4"),
    ("request", "workers", True),
    ("request", "chunk_size", 1.5),
    ("spec", "offset_iterations", 63),
]


def case_id(case):
    return "-".join(map(str, case))


class TestMalformedFleetAndArrayJobs:
    """Non-finite or out-of-range fleet and array inputs are refused
    at submit."""

    @pytest.mark.parametrize("case", MALFORMED_FLEETS, ids=case_id)
    def test_fleet_rejected_by_validate(self, case):
        request_from_dict(fleet_fields()).validate()
        with pytest.raises(ValueError):
            request_from_dict(fleet_fields(*case)).validate()

    @pytest.mark.parametrize("case", MALFORMED_ARRAYS, ids=case_id)
    def test_array_rejected_by_validate(self, case):
        request_from_dict(array_fields()).validate()
        with pytest.raises(ValueError):
            request_from_dict(array_fields(*case)).validate()

    def test_fleet_submit_is_400(self, server):
        assert_submit_refused(server[0], fleet_fields("spec", "years",
                                                      [INF]))

    def test_array_submit_is_400(self, server):
        assert_submit_refused(server[0], array_fields("spec", "times_s",
                                                      [0.0, NAN]))

    @pytest.mark.parametrize("doc", [
        fleet_fields("spec", "temps_c", [[-300.0, 1.0]]),
        fleet_fields("spec", "vdds", [[-1.0, 1.0]]),
        fleet_fields("request", "workers", 0),
        array_fields("request", "workers", -2),
    ], ids=["fleet-temp", "fleet-vdd", "fleet-workers", "array-workers"])
    def test_out_of_range_submit_is_400(self, server, doc):
        assert_submit_refused(server[0], doc)


class TestRawBodies:
    def test_raw_submit_accepts_flat_body(self, server):
        """The body may be the request itself (no ``request`` wrapper)."""
        client, httpd = server
        url = client.base_url + "/submit"
        blob = json.dumps(request_fields(mc=16, seed=123)).encode()
        req = urllib.request.Request(
            url, data=blob, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=10) as resp:
            doc = json.loads(resp.read().decode())
        assert doc["id"]
        HttpClient(client.base_url).wait(doc["id"], timeout=60)

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"request": "x"},
        {"request": [1, 2]},
        {"request": request_fields(), "priority": "x"},
        {"request": request_fields(), "priority": 1.5},
        {"request": request_fields(), "priority": True},
    ], ids=["list-body", "string-request", "list-request",
            "string-priority", "float-priority", "bool-priority"])
    def test_malformed_submit_is_400(self, server, doc):
        assert_submit_refused(server[0], doc)
