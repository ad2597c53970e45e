"""The wire and identity contract every job kind shares.

One request of each kind (cell, fleet, array) goes through the same
checks: its wire document, a JSON round trip through
``request_from_dict`` and through the job journal, the explicit
payload its cache key hashes, and the execution knobs that must stay
out of that key.  A new kind joins by adding one entry to ``CASES``.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ResultCache
from repro.service import (ArrayRequest, FleetRequest, Job, JobRequest,
                           request_from_dict)

FLEET_SPEC = {"n_devices": 256, "block_size": 64, "seed": 7,
              "years": [1.0], "phases_per_year": 2,
              "reads_per_phase": 64, "temps_c": [[25.0, 1.0]],
              "vdds": [[1.0, 1.0]]}
ARRAY_SPEC = {"rows": 16, "columns": 2, "words_per_row": 1,
              "mux_factor": 1, "mc": 6, "times_s": [0.0],
              "offset_iterations": 10}

#: (request, its literal wire document), one per kind.
CASES = {
    "cell": (
        JobRequest(scheme="issa", workload="80r0", time_s=1e8, mc=8,
                   offset_iterations=6, chunk_size=4),
        {"scheme": "issa", "workload": "80r0", "time_s": 1e8,
         "temp_c": 25.0, "vdd": 1.0, "mc": 8, "seed": 2017,
         "dt": 1e-12, "offset_iterations": 6, "measure_offset": True,
         "measure_delay": True, "chunk_size": 4, "timeout_s": None,
         "backend": None}),
    "fleet": (
        FleetRequest(spec=FLEET_SPEC,
                     policies=({"scheme": "nssa"}, {"scheme": "issa"}),
                     chunk_size=128, workers=1),
        {"kind": "fleet", "spec": FLEET_SPEC,
         "policies": [{"scheme": "nssa"}, {"scheme": "issa"}],
         "chunk_size": 128, "workers": 1, "timeout_s": None}),
    "array": (
        ArrayRequest(spec=ARRAY_SPEC, schemes=("nssa", "issa"),
                     chunk_size=2, workers=1, timeout_s=60.0),
        {"kind": "array", "spec": ARRAY_SPEC,
         "schemes": ["nssa", "issa"], "chunk_size": 2, "workers": 1,
         "timeout_s": 60.0}),
}

kinds = pytest.mark.parametrize("kind", sorted(CASES))


def wire(document):
    """The document as a JSON peer would hand it back."""
    return json.loads(json.dumps(document))


def explicit_key(cache, request):
    """The cache key spelled out from the request's physics fields."""
    if isinstance(request, JobRequest):
        kwargs = request.run_kwargs()
        kwargs.pop("chunk_size")
        return cache.key_for_cell(request.to_cell(), **kwargs)
    doc = request.to_dict()
    field = "policies" if "policies" in doc else "schemes"
    return cache.key_for_doc({"kind": doc["kind"], "spec": doc["spec"],
                              field: doc[field]})


@kinds
def test_to_dict_is_the_literal_document(kind):
    request, document = CASES[kind]
    assert request.to_dict() == document


@kinds
def test_request_round_trip(kind):
    request, _ = CASES[kind]
    replayed = request_from_dict(wire(request.to_dict()))
    assert type(replayed) is type(request)
    assert replayed == request


@kinds
def test_job_round_trip(kind):
    request, _ = CASES[kind]
    job = Job(id="abc", request=request, seq=3, priority=1,
              state="pending")
    replayed = Job.from_dict(wire(job.to_dict()))
    assert replayed == job
    assert type(replayed.request) is type(request)


@kinds
def test_cache_key_is_the_explicit_payload(kind, tmp_path):
    request, _ = CASES[kind]
    cache = ResultCache(tmp_path)
    assert request.cache_key(cache) == explicit_key(cache, request)


#: Keys are pure functions of the request; no directory is touched.
_KEY_CACHE = ResultCache(pathlib.Path("key-derivation-only"))
_KNOBS = {
    "chunk_size": st.none() | st.integers(1, 10 ** 6),
    "workers": st.none() | st.integers(1, 64),
    "timeout_s": st.none() | st.floats(0.001, 1e6),
}


@kinds
@settings(max_examples=20, deadline=None)
@given(knobs=st.fixed_dictionaries(_KNOBS))
def test_cache_key_ignores_execution_knobs(kind, knobs):
    request, _ = CASES[kind]
    names = {f.name for f in dataclasses.fields(request)}
    changed = dataclasses.replace(
        request, **{k: v for k, v in knobs.items() if k in names})
    assert changed.cache_key(_KEY_CACHE) \
        == request.cache_key(_KEY_CACHE)


@kinds
def test_unknown_field_rejected(kind):
    request, _ = CASES[kind]
    document = dict(request.to_dict(), bogus=1)
    with pytest.raises(ValueError, match="unknown request field"):
        request_from_dict(document)


#: Count fields of each kind that must be positive, non-bool integers.
COUNT_FIELDS = {"cell": ("mc", "offset_iterations", "chunk_size"),
                "fleet": ("chunk_size", "workers"),
                "array": ("chunk_size", "workers")}


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind in sorted(COUNT_FIELDS)
    for name in COUNT_FIELDS[kind]])
@pytest.mark.parametrize("value", [True, 2.5, 0, -1, "4"])
def test_non_integer_count_rejected(kind, name, value):
    request, _ = CASES[kind]
    request.validate()
    with pytest.raises(ValueError, match="positive integer"):
        dataclasses.replace(request, **{name: value}).validate()


@pytest.mark.parametrize("value", [-1, 1.5, True, "7", None])
def test_cell_seed_is_a_non_negative_integer(value):
    document = dict(CASES["cell"][1], seed=value)
    with pytest.raises(ValueError, match="seed"):
        request_from_dict(document).validate()


def test_cell_seed_zero_accepted():
    request_from_dict(dict(CASES["cell"][1], seed=0)).validate()


@pytest.mark.parametrize("kind", ["fleet", "array"])
def test_engine_seed_must_be_set(kind):
    document = json.loads(json.dumps(CASES[kind][1]))
    document["spec"]["seed"] = None
    with pytest.raises(ValueError, match="seed"):
        request_from_dict(document).validate()


@pytest.mark.parametrize("name", ["measure_offset", "measure_delay"])
@pytest.mark.parametrize("value", ["no", "true", 0, 1, None, [True]])
def test_cell_measure_flags_are_booleans(name, value):
    """A flag is read by truthiness, so ``"no"`` would measure."""
    document = dict(CASES["cell"][1], **{name: value})
    with pytest.raises(ValueError, match=name):
        request_from_dict(document).validate()


@pytest.mark.parametrize("value", [5, [1], {"name": "80r0"}, True, 2.5])
def test_cell_workload_is_a_name(value):
    document = dict(CASES["cell"][1], workload=value)
    with pytest.raises(ValueError, match="workload"):
        request_from_dict(document).validate()


def test_cell_bisection_depth_bounded():
    request, _ = CASES["cell"]
    with pytest.raises(ValueError, match="at most 62"):
        dataclasses.replace(request, offset_iterations=63).validate()


@pytest.mark.parametrize("dt", [3e-12, 5e-12, 1e-11, 3e-11, 1e-9])
def test_cell_dt_must_resolve_the_enable_rise(dt):
    """Coarser steps than half the 5 ps rise fail in the worker."""
    request, _ = CASES["cell"]
    with pytest.raises(ValueError, match="enable rise"):
        dataclasses.replace(request, dt=dt).validate()


def test_cell_dt_at_half_the_rise_accepted():
    request, _ = CASES["cell"]
    dataclasses.replace(request, dt=2.5e-12).validate()


def test_cell_tiny_dt_refused():
    """A 1e-18 s step would allocate ~1e8-step tables and state rings,
    even one sample at a time."""
    request, _ = CASES["cell"]
    with pytest.raises(ValueError, match="sample-step ceiling"):
        dataclasses.replace(request, dt=1e-18, chunk_size=1).validate()


def test_cell_step_ceiling_counts_the_batch():
    """The ceiling is on steps x samples of one transient batch, so a
    smaller chunk_size admits a finer step."""
    request = dataclasses.replace(CASES["cell"][0], mc=400, dt=1e-14,
                                  chunk_size=None)
    with pytest.raises(ValueError, match="lower chunk_size"):
        request.validate()
    dataclasses.replace(request, chunk_size=100).validate()


def test_array_step_ceiling_counts_the_packed_group():
    """An array job's transient batch is a packed column group, so the
    same ceiling applies to columns per group x mc."""
    huge = ArrayRequest(spec={"rows": 64, "columns": 64, "mc": 100000},
                        chunk_size=64)
    with pytest.raises(ValueError, match="sample-step ceiling"):
        huge.validate()
    packed = ArrayRequest(spec={"rows": 64, "columns": 64, "mc": 1000},
                          chunk_size=64)
    with pytest.raises(ValueError, match="lower chunk_size"):
        packed.validate()
    dataclasses.replace(packed, chunk_size=8).validate()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown request kind"):
        request_from_dict({"kind": "teleport"})


def test_kindless_document_is_a_cell():
    request = request_from_dict({"scheme": "issa", "workload": "80r0",
                                 "time_s": 1e8, "mc": 8})
    assert type(request) is JobRequest
    assert request == JobRequest(scheme="issa", workload="80r0",
                                 time_s=1e8, mc=8)
