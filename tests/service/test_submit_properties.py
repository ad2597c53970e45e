"""``POST /submit`` answers every JSON body with 200 or 400, never 500.

The bodies are arbitrary JSON values, and valid cell, fleet and array
requests with one field (of the request or of its spec) replaced by an
arbitrary JSON value.  The service never starts a worker, so accepted
jobs are journalled but never run.
"""

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import Service
from repro.service.http_api import make_server

PROPERTY = settings(max_examples=150, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12)

#: One valid request of each kind.
VALID = {
    "cell": {"scheme": "nssa", "workload": "80r0", "time_s": 1e8,
             "temp_c": 25.0, "vdd": 1.0, "mc": 8, "seed": 2017,
             "dt": 1e-12, "offset_iterations": 6,
             "measure_offset": True, "measure_delay": True,
             "chunk_size": 4, "timeout_s": None, "backend": None},
    "fleet": {"kind": "fleet",
              "spec": {"n_devices": 64, "block_size": 64, "seed": 7,
                       "years": [1.0], "phases_per_year": 2,
                       "reads_per_phase": 64, "temps_c": [[25.0, 1.0]],
                       "vdds": [[1.0, 1.0]]},
              "policies": [{"scheme": "nssa"}, {"scheme": "issa"}],
              "chunk_size": 64, "workers": 1, "timeout_s": None},
    "array": {"kind": "array",
              "spec": {"rows": 16, "columns": 2, "words_per_row": 1,
                       "mux_factor": 1, "mc": 6, "times_s": [0.0],
                       "offset_iterations": 10},
              "schemes": ["nssa", "issa"], "chunk_size": 2,
              "workers": 1, "timeout_s": None},
}

#: (kind, part, field) of every field a mutation may replace.
FIELDS = sorted(
    [(kind, "request", name) for kind, doc in VALID.items()
     for name in doc]
    + [(kind, "spec", name) for kind in ("fleet", "array")
       for name in VALID[kind]["spec"]])


@pytest.fixture(scope="module")
def submit_url(tmp_path_factory):
    service = Service(directory=tmp_path_factory.mktemp("service"),
                      autostart=False)
    with serving(service) as base:
        yield base + "/submit"
    service.close()


@contextlib.contextmanager
def serving(service):
    """Base URL of an in-process HTTP server over ``service``."""
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


def post(url, body):
    """Status code and decoded reply of a raw ``POST`` of ``body``."""
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def assert_answered(url, body):
    status, reply = post(url, body)
    assert status in (200, 400), (status, reply, body)


def test_valid_requests_are_accepted(submit_url):
    for doc in VALID.values():
        status, reply = post(submit_url, doc)
        assert status == 200, reply


@PROPERTY
@given(body=json_values)
def test_any_json_body(submit_url, body):
    assert_answered(submit_url, body)


@PROPERTY
@given(field=st.sampled_from(FIELDS), value=json_values,
       wrapped=st.booleans())
def test_one_field_replaced(submit_url, field, value, wrapped):
    kind, part, name = field
    doc = json.loads(json.dumps(VALID[kind]))
    if part == "spec":
        doc["spec"][name] = value
    else:
        doc[name] = value
    assert_answered(submit_url, {"request": doc} if wrapped else doc)
