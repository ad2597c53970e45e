"""Array requests through the job service: dedup, sharding, HTTP.

Pins the acceptance contract: an array job run end-to-end through the
sharded job service is bit-identical to a direct in-process
``ArrayEngine.compare`` call.
"""

import json
import threading

import pytest

from repro.array import ArrayEngine, ArraySpec
from repro.core.cache import ResultCache
from repro.service import ArrayRequest, HttpClient, JobRequest, Service
from repro.service.http_api import make_server

SPEC = {"rows": 16, "columns": 2, "words_per_row": 1, "mux_factor": 1,
        "mc": 6, "times_s": [0.0], "offset_iterations": 10}
SCHEMES = ("nssa", "issa")


def array_request(**overrides):
    fields = dict(spec=SPEC, schemes=SCHEMES, workers=1)
    fields.update(overrides)
    return ArrayRequest(**fields)


class TestArrayRequest:
    def test_validate_parses_engine_inputs(self):
        spec, schemes = array_request().validate()
        assert isinstance(spec, ArraySpec)
        assert spec.rows == 16
        assert schemes == SCHEMES

    def test_validate_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            array_request(spec=dict(SPEC, rows=0)).validate()
        with pytest.raises(ValueError):
            array_request(schemes=("magic",)).validate()
        with pytest.raises(ValueError):
            array_request(chunk_size=0).validate()

    def test_identity_excludes_execution_knobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = array_request()
        rechunked = array_request(chunk_size=4, workers=8)
        other = array_request(spec=dict(SPEC, rows=32))
        swapped = array_request(schemes=("issa", "nssa"))
        assert base.cache_key(cache) == rechunked.cache_key(cache)
        assert base.cache_key(cache) != other.cache_key(cache)
        assert base.cache_key(cache) != swapped.cache_key(cache)

    def test_never_batches_with_other_kinds(self):
        assert array_request().signature() \
            != JobRequest(scheme="nssa").signature()


class TestArrayThroughService:
    def test_sharded_service_matches_direct_run(self, tmp_path):
        """The acceptance e2e: sharded job service == direct engine."""
        request = array_request()
        with Service(tmp_path, n_shards=2) as service:
            job = service.submit(request)
            doc = service.wait(job.id, timeout=300)
            assert doc["state"] == "done"
            served = service.result(job.id)
        spec, schemes = request.validate()
        direct = ArrayEngine(spec, workers=1).compare(schemes)
        assert served == json.loads(json.dumps(direct))

    def test_dedup_and_cache_short_circuit(self, tmp_path):
        request = array_request()
        cache = ResultCache(tmp_path / "results")
        with Service(tmp_path / "svc", cache=cache) as service:
            job, deduped = service.submit_info(request)
            assert not deduped
            service.wait(job.id, timeout=300)
            again, deduped = service.submit_info(request)
            assert deduped and again.id == job.id
        # A fresh service over the same result cache completes the
        # resubmission instantly from the doc entry.
        with Service(tmp_path / "svc2", cache=cache,
                     autostart=False) as service:
            job2, _ = service.submit_info(request)
            assert job2.from_cache and job2.state == "done"
            assert service.result(job2.id)["comparison"]

    def test_bad_array_request_rejected_at_submit(self, tmp_path):
        with Service(tmp_path, autostart=False) as service:
            with pytest.raises(ValueError):
                service.submit({"kind": "array",
                                "spec": dict(SPEC, rows=0),
                                "schemes": list(SCHEMES)})

    def test_metrics_stamp_geometry_and_counters(self, tmp_path):
        from repro.analysis.perf import PERF
        before = PERF.snapshot()["counters"]
        with Service(tmp_path) as service:
            job = service.submit(array_request())
            service.wait(job.id, timeout=300)
            block = service.metrics()["array"]
        # PERF is process-global; assert the deltas this run added.
        expected_columns = (len(SCHEMES) * len(SPEC["times_s"])
                            * SPEC["columns"])
        assert block["columns"] - before.get("array.columns", 0) \
            == expected_columns
        assert block["compares"] - before.get("array.compares", 0) == 1
        assert block["geometry"]["rows"] == SPEC["rows"]
        assert block["geometry"]["columns"] == SPEC["columns"]
        assert block["geometry"]["cells"] == \
            SPEC["rows"] * SPEC["columns"] * SPEC["mux_factor"]


class TestArrayOverHttp:
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
        job_id = client.submit(array_request())
        assert client.submit(array_request().to_dict()) == job_id
        doc = client.wait(job_id, timeout=300)
        assert doc["state"] == "done"
        row = client.result(job_id)["row"]
        assert {"spec", "schemes", "comparison",
                "lifetime"} <= set(row)
        assert set(row["lifetime"]) == set(SCHEMES)
        assert client.metrics()["array"]["geometry"]["rows"] \
            == SPEC["rows"]
