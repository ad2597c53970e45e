"""Fleet requests through the job service: dedup, journal, HTTP."""

import json
import threading

import pytest

from repro.core.cache import ResultCache
from repro.fleet import FleetEngine, FleetSpec, MitigationPolicy
from repro.service import FleetRequest, HttpClient, JobRequest, Service
from repro.service.http_api import make_server

SPEC = {"n_devices": 256, "block_size": 64, "seed": 7,
        "years": [1.0], "phases_per_year": 2, "reads_per_phase": 64,
        "temps_c": [[25.0, 1.0]], "vdds": [[1.0, 1.0]]}
POLICIES = ({"scheme": "nssa"}, {"scheme": "issa"})


def fleet_request(**overrides):
    fields = dict(spec=SPEC, policies=POLICIES, workers=1)
    fields.update(overrides)
    return FleetRequest(**fields)


class TestFleetRequest:
    def test_validate_parses_engine_inputs(self):
        spec, policies = fleet_request().validate()
        assert isinstance(spec, FleetSpec)
        assert [p.scheme for p in policies] == ["nssa", "issa"]

    def test_validate_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            fleet_request(policies=()).validate()
        with pytest.raises(ValueError):
            fleet_request(spec=dict(SPEC, n_devices=0)).validate()
        with pytest.raises(ValueError):
            fleet_request(
                policies=({"scheme": "magic"},)).validate()

    def test_identity_excludes_execution_knobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = fleet_request()
        rechunked = fleet_request(chunk_size=999, workers=4)
        other_spec = fleet_request(spec=dict(SPEC, seed=8))
        assert base.cache_key(cache) == rechunked.cache_key(cache)
        assert base.cache_key(cache) != other_spec.cache_key(cache)

    def test_never_batches_with_cell_requests(self):
        assert fleet_request().signature() \
            != JobRequest(scheme="nssa").signature()


class TestFleetThroughService:
    def test_submit_wait_result_matches_direct_run(self, tmp_path):
        request = fleet_request()
        with Service(tmp_path) as service:
            job = service.submit(request)
            doc = service.wait(job.id, timeout=120)
            assert doc["state"] == "done"
            served = service.result(job.id)
        spec, policies = request.validate()
        direct = FleetEngine(spec, workers=1).compare(policies)
        assert served == json.loads(json.dumps(direct))

    def test_dedup_and_cache_short_circuit(self, tmp_path):
        request = fleet_request()
        cache = ResultCache(tmp_path / "results")
        with Service(tmp_path / "svc", cache=cache) as service:
            job, deduped = service.submit_info(request)
            assert not deduped
            service.wait(job.id, timeout=120)
            again, deduped = service.submit_info(request)
            assert deduped and again.id == job.id
        # A fresh service over the same result cache completes the
        # resubmission instantly from the doc entry.
        with Service(tmp_path / "svc2", cache=cache,
                     autostart=False) as service:
            job2, _ = service.submit_info(request)
            assert job2.from_cache and job2.state == "done"
            assert service.result(job2.id)["comparison"]

    def test_bad_fleet_request_rejected_at_submit(self, tmp_path):
        with Service(tmp_path, autostart=False) as service:
            with pytest.raises(ValueError):
                service.submit({"kind": "fleet", "spec": SPEC,
                                "policies": [{"scheme": "magic"}]})

    def test_metrics_report_fleet_counters(self, tmp_path):
        from repro.analysis.perf import PERF
        before = PERF.snapshot()["counters"]
        with Service(tmp_path) as service:
            job = service.submit(fleet_request())
            service.wait(job.id, timeout=120)
            fleet = service.metrics()["fleet"]
        # PERF is process-global, so assert on the deltas this run
        # added rather than absolute values.
        assert fleet["devices"] - before.get("fleet.devices", 0) \
            == 2 * SPEC["n_devices"]
        assert fleet["blocks"] - before.get("fleet.blocks", 0) == 2 * 4
        assert fleet["policies"] - before.get("fleet.policies", 0) == 2


class TestFleetOverHttp:
    @pytest.fixture
    def server(self, tmp_path):
        service = Service(directory=tmp_path)
        httpd = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        client = HttpClient(
            f"http://127.0.0.1:{httpd.server_address[1]}")
        yield client
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()
        service.close()

    def test_round_trip_with_dedup(self, server):
        client = server
        job_id = client.submit(fleet_request())
        assert client.submit(fleet_request().to_dict()) == job_id
        doc = client.wait(job_id, timeout=120)
        assert doc["state"] == "done"
        row = client.result(job_id)["row"]
        assert {"spec", "policies", "comparison"} <= set(row)
        names = [s["policy"]["name"] for s in row["policies"]]
        assert names == ["nssa", "issa"]
        assert client.metrics()["fleet"]["policies"] >= 2
