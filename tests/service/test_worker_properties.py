"""The worker protocol (``/claim``, ``/heartbeat``, ``/ack``) answers
every JSON body with a 2xx or 4xx status, never 500.

The bodies are arbitrary JSON values, and valid bodies of each route
with one field replaced by an arbitrary JSON value.  A few cell jobs are
queued first (no worker ever runs them), so claims lease real jobs and
heartbeats and acks reach real leases as well as unknown ids.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.service import Service

from .test_submit_properties import PROPERTY, json_values, post, serving

#: One valid body of each route; ``"id"``/``"ids"`` are filled in with
#: the queued jobs.
VALID = {
    "/claim": {"worker": "w", "max_batch": 2, "lease_s": 60.0},
    "/heartbeat": {"worker": "w", "ids": [], "lease_s": 60.0},
    "/ack": {"worker": "w", "id": "", "row": {"spec_mV": 1.0}},
}

#: (route, field) of every field a mutation may replace.
FIELDS = sorted((route, name) for route, doc in VALID.items()
                for name in doc)


@pytest.fixture(scope="module")
def worker_api(tmp_path_factory):
    """(base URL, ids of the queued jobs) of a server with no worker."""
    service = Service(directory=tmp_path_factory.mktemp("service"),
                      autostart=False)
    ids = [service.submit({"scheme": "nssa", "mc": 8, "seed": seed,
                           "offset_iterations": 6}).id
           for seed in range(4)]
    with serving(service) as base:
        yield base, ids
    service.close()


def assert_answered(url, body):
    status, reply = post(url, body)
    assert status in (200, 400, 404, 409), (status, reply, body)


def test_valid_bodies_are_accepted(worker_api):
    base, ids = worker_api
    status, reply = post(base + "/claim", VALID["/claim"])
    assert status == 200 and reply["jobs"], reply
    leased = [job["id"] for job in reply["jobs"]]
    status, reply = post(base + "/heartbeat",
                         dict(VALID["/heartbeat"], ids=leased))
    assert status == 200 and reply["renewed"] == len(leased), reply
    status, reply = post(base + "/ack", dict(VALID["/ack"], id=leased[0]))
    assert status == 200 and reply["state"] == "done", reply


@pytest.mark.parametrize("lease_s", [10 ** 400, -1, 0, True, "60",
                                     float("inf"), float("nan")],
                         ids=["int-past-float", "negative", "zero", "true",
                              "string", "inf", "nan"])
@pytest.mark.parametrize("route", ["/claim", "/heartbeat"])
def test_bad_lease_is_400(worker_api, route, lease_s):
    base, _ = worker_api
    status, reply = post(base + route, dict(VALID[route], lease_s=lease_s))
    assert status == 400 and "lease_s" in reply["error"], reply


@pytest.mark.parametrize("max_batch", [True, 0, 2.0])
def test_bad_max_batch_is_400(worker_api, max_batch):
    base, _ = worker_api
    status, reply = post(base + "/claim",
                         dict(VALID["/claim"], max_batch=max_batch))
    assert status == 400 and "max_batch" in reply["error"], reply


@pytest.mark.parametrize("release", ["no", 0, 1, None])
def test_non_boolean_release_is_400(worker_api, release):
    """A release flag is not read by its truthiness."""
    base, ids = worker_api
    status, reply = post(base + "/ack", {"worker": "w", "id": ids[-1],
                                         "release": release})
    assert status == 400 and "release" in reply["error"], reply


@pytest.mark.parametrize("route", sorted(VALID))
@PROPERTY
@given(body=json_values)
def test_any_json_body(worker_api, route, body):
    base, _ = worker_api
    assert_answered(base + route, body)


@PROPERTY
@given(field=st.sampled_from(FIELDS), value=json_values,
       data=st.data())
def test_one_field_replaced(worker_api, field, value, data):
    base, ids = worker_api
    route, name = field
    doc = json.loads(json.dumps(VALID[route]))
    if "id" in doc:
        doc["id"] = data.draw(st.sampled_from(ids + ["no-such-job"]))
    if "ids" in doc:
        doc["ids"] = data.draw(st.lists(st.sampled_from(ids), max_size=4))
    doc[name] = value
    assert_answered(base + route, doc)
