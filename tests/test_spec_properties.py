"""Property tests on the wire forms of the fleet and array kinds.

Every valid :class:`FleetSpec`, :class:`MitigationPolicy` and
:class:`ArraySpec` survives ``to_dict`` -> JSON -> ``from_dict``
unchanged, and so do the service requests built from them.  Every
malformed numeric field of such a document — non-finite, a negative
weight, a temperature at or below absolute zero, a boolean or a
fractional count — is refused with ``ValueError``, and so is an array
request whose packed column group passes the sample-step ceiling.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.array.engine import PACK_SAMPLES
from repro.array.spec import ArraySpec
from repro.circuits.sense_amp import ReadTiming
from repro.core.offset import MAX_ITERATIONS
from repro.core.testbench import MAX_BATCH_SAMPLE_STEPS
from repro.fleet.spec import FleetSpec, MitigationPolicy
from repro.service.jobs import (ArrayRequest, FleetRequest,
                                request_from_dict)

WORKLOADS = ("80r0r1", "80r0", "80r1", "20r0r1", "20r0", "20r1")
NON_FINITE = (float("nan"), float("inf"), float("-inf"))

PROPERTY = settings(max_examples=60, deadline=None)

#: Time steps of one array read (default ``ReadTiming``).
ARRAY_STEPS = math.ceil(ReadTiming().t_window / ReadTiming().dt)

weights = st.floats(min_value=0.1, max_value=10.0)
temps = st.floats(min_value=-200.0, max_value=200.0)


def wire(doc):
    """The document as it arrives over HTTP or from the journal."""
    return json.loads(json.dumps(doc))


@st.composite
def fleet_specs(draw):
    per_year = draw(st.integers(1, 12))
    phases = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4,
                           unique=True))
    return FleetSpec(
        n_devices=draw(st.integers(1, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 32)),
        block_size=draw(st.integers(1, 8192)),
        years=tuple(k / per_year for k in sorted(phases)),
        phases_per_year=per_year,
        reads_per_phase=draw(st.integers(1, 4096)),
        workloads=tuple(draw(st.lists(
            st.tuples(st.sampled_from(WORKLOADS), weights),
            min_size=1, max_size=6))),
        temps_c=tuple(draw(st.lists(st.tuples(temps, weights),
                                    min_size=1, max_size=3))),
        vdds=tuple(draw(st.lists(
            st.tuples(st.floats(min_value=0.5, max_value=1.5), weights),
            min_size=1, max_size=3))),
        swing_mv=draw(st.floats(min_value=1.0, max_value=500.0)))


policies = st.builds(
    MitigationPolicy,
    scheme=st.sampled_from(("nssa", "issa")),
    residual_imbalance=st.floats(min_value=0.0, max_value=1.0),
    rejuvenation_interval_years=st.floats(min_value=0.0, max_value=10.0),
    rejuvenation_phases=st.integers(1, 8),
    guardband_trim=st.floats(min_value=0.0, max_value=0.99))


@st.composite
def array_specs(draw):
    words = draw(st.integers(1, 8))
    times = draw(st.lists(st.floats(min_value=0.0, max_value=1e9),
                          min_size=1, max_size=4, unique=True))
    return ArraySpec(
        rows=draw(st.integers(1, 1024)),
        columns=draw(st.integers(1, 64)),
        words_per_row=words,
        mux_factor=words * draw(st.integers(1, 4)),
        workload=draw(st.one_of(st.none(), st.sampled_from(WORKLOADS))),
        times_s=tuple(sorted(times)),
        temp_c=draw(temps),
        vdd=draw(st.floats(min_value=0.5, max_value=1.5)),
        mc=draw(st.integers(2, 1000)),
        seed=draw(st.integers(0, 2 ** 32)),
        offset_iterations=draw(st.integers(1, MAX_ITERATIONS)),
        swing_mv=draw(st.floats(min_value=1.0, max_value=500.0)),
        noise_margin_mv=draw(st.floats(min_value=0.0, max_value=100.0)))


def with_field(doc, path, value):
    """``doc`` with the field at ``path`` (keys and list indices) set."""
    doc = wire(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


class TestRoundTrip:
    @PROPERTY
    @given(spec=fleet_specs())
    def test_fleet_spec(self, spec):
        assert FleetSpec.from_dict(spec.to_dict()) == spec
        assert FleetSpec.from_dict(wire(spec.to_dict())) == spec

    @PROPERTY
    @given(policy=policies)
    def test_mitigation_policy(self, policy):
        assert MitigationPolicy.from_dict(policy.to_dict()) == policy
        assert MitigationPolicy.from_dict(wire(policy.to_dict())) == policy

    @PROPERTY
    @given(spec=array_specs())
    def test_array_spec(self, spec):
        assert ArraySpec.from_dict(spec.to_dict()) == spec
        assert ArraySpec.from_dict(wire(spec.to_dict())) == spec

    @PROPERTY
    @given(spec=fleet_specs(), items=st.lists(policies, min_size=1,
                                              max_size=3),
           workers=st.one_of(st.none(), st.integers(1, 8)))
    def test_fleet_request(self, spec, items, workers):
        request = FleetRequest(spec=spec.to_dict(),
                               policies=[p.to_dict() for p in items],
                               workers=workers)
        again = request_from_dict(wire(request.to_dict()))
        assert again == request
        assert again.validate() == (spec, items)

    @PROPERTY
    @given(spec=array_specs(),
           schemes=st.sampled_from((("nssa",), ("nssa", "issa"),
                                    ("issa", "nssa"))),
           chunk_size=st.one_of(st.none(), st.integers(1, 64)))
    def test_array_request_within_the_ceiling(self, spec, schemes,
                                              chunk_size):
        group = min(chunk_size or max(1, PACK_SAMPLES // spec.mc),
                    spec.columns)
        assume(group * spec.mc * ARRAY_STEPS <= MAX_BATCH_SAMPLE_STEPS)
        request = ArrayRequest(spec=spec.to_dict(), schemes=schemes,
                               chunk_size=chunk_size)
        again = request_from_dict(wire(request.to_dict()))
        assert again == request
        assert again.validate() == (spec, schemes)

    @PROPERTY
    @given(spec=array_specs(),
           chunk_size=st.one_of(st.none(), st.integers(1, 64)),
           data=st.data())
    def test_array_request_past_the_ceiling(self, spec, chunk_size, data):
        """Columns per group x mc x steps past the ceiling is refused;
        an mc that large packs one column per group by default."""
        group = min(chunk_size or 1, spec.columns)
        floor = MAX_BATCH_SAMPLE_STEPS // (ARRAY_STEPS * group) + 1
        spec = dataclasses.replace(
            spec, mc=data.draw(st.integers(floor, 4 * floor)))
        request = ArrayRequest(spec=spec.to_dict(), chunk_size=chunk_size)
        again = request_from_dict(wire(request.to_dict()))
        assert again == request
        with pytest.raises(ValueError, match="sample-step ceiling"):
            again.validate()


FLEET_COUNTS = ("n_devices", "seed", "block_size", "phases_per_year",
                "reads_per_phase")
POLICY_REALS = ("residual_imbalance", "rejuvenation_interval_years",
                "guardband_trim")
ARRAY_COUNTS = ("rows", "columns", "words_per_row", "mux_factor", "mc",
                "seed", "offset_iterations")


class TestRejection:
    @PROPERTY
    @given(spec=fleet_specs(), bad=st.sampled_from(NON_FINITE),
           path=st.sampled_from((("swing_mv",), ("years", 0),
                                 ("temps_c", 0, 0), ("temps_c", 0, 1),
                                 ("vdds", 0, 0), ("vdds", 0, 1),
                                 ("workloads", 0, 1))))
    def test_fleet_non_finite(self, spec, bad, path):
        with pytest.raises(ValueError):
            FleetSpec.from_dict(with_field(spec.to_dict(), path, bad))

    @PROPERTY
    @given(spec=fleet_specs(), weight=st.floats(max_value=-1e-9,
                                                allow_infinity=False),
           profile=st.sampled_from(("workloads", "temps_c", "vdds")))
    def test_fleet_negative_weight(self, spec, weight, profile):
        with pytest.raises(ValueError):
            FleetSpec.from_dict(with_field(spec.to_dict(),
                                           (profile, 0, 1), weight))

    @PROPERTY
    @given(spec=fleet_specs(), temp=st.floats(max_value=-273.15,
                                              allow_infinity=False))
    def test_fleet_below_absolute_zero(self, spec, temp):
        with pytest.raises(ValueError):
            FleetSpec.from_dict(with_field(spec.to_dict(),
                                           ("temps_c", 0, 0), temp))

    @PROPERTY
    @given(spec=fleet_specs(), flag=st.booleans(),
           field=st.sampled_from(FLEET_COUNTS + ("swing_mv",)))
    def test_fleet_boolean(self, spec, flag, field):
        with pytest.raises(ValueError):
            FleetSpec.from_dict(with_field(spec.to_dict(), (field,), flag))

    @PROPERTY
    @given(spec=fleet_specs(), count=st.integers(0, 1000),
           field=st.sampled_from(FLEET_COUNTS))
    def test_fleet_fractional_count(self, spec, count, field):
        with pytest.raises(ValueError):
            FleetSpec.from_dict(with_field(spec.to_dict(), (field,),
                                           count + 0.5))

    @PROPERTY
    @given(spec=fleet_specs(), field=st.sampled_from(FLEET_COUNTS))
    def test_fleet_unset_count(self, spec, field):
        with pytest.raises(ValueError, match=field):
            FleetSpec.from_dict(with_field(spec.to_dict(), (field,), None))

    @PROPERTY
    @given(policy=policies, bad=st.sampled_from(NON_FINITE),
           field=st.sampled_from(POLICY_REALS))
    def test_policy_non_finite(self, policy, bad, field):
        with pytest.raises(ValueError):
            MitigationPolicy.from_dict(dict(policy.to_dict(),
                                            **{field: bad}))

    @PROPERTY
    @given(policy=policies, flag=st.booleans(),
           field=st.sampled_from(POLICY_REALS + ("rejuvenation_phases",)))
    def test_policy_boolean(self, policy, flag, field):
        with pytest.raises(ValueError):
            MitigationPolicy.from_dict(dict(policy.to_dict(),
                                            **{field: flag}))

    @PROPERTY
    @given(policy=policies, count=st.integers(1, 100))
    def test_policy_fractional_count(self, policy, count):
        with pytest.raises(ValueError):
            MitigationPolicy.from_dict(dict(policy.to_dict(),
                                            rejuvenation_phases=count + 0.5))

    @PROPERTY
    @given(spec=array_specs(), bad=st.sampled_from(NON_FINITE),
           field=st.sampled_from(("temp_c", "vdd", "swing_mv",
                                  "noise_margin_mv", "times_s")))
    def test_array_non_finite(self, spec, bad, field):
        value = [bad] if field == "times_s" else bad
        with pytest.raises(ValueError):
            ArraySpec.from_dict(dict(spec.to_dict(), **{field: value}))

    @PROPERTY
    @given(spec=array_specs(), temp=st.floats(max_value=-273.15,
                                              allow_infinity=False))
    def test_array_below_absolute_zero(self, spec, temp):
        with pytest.raises(ValueError):
            ArraySpec.from_dict(dict(spec.to_dict(), temp_c=temp))

    @PROPERTY
    @given(spec=array_specs(), flag=st.booleans(),
           field=st.sampled_from(ARRAY_COUNTS + ("temp_c", "vdd")))
    def test_array_boolean(self, spec, flag, field):
        with pytest.raises(ValueError):
            ArraySpec.from_dict(dict(spec.to_dict(), **{field: flag}))

    @PROPERTY
    @given(spec=array_specs(), count=st.integers(0, 1000),
           field=st.sampled_from(ARRAY_COUNTS))
    def test_array_fractional_count(self, spec, count, field):
        with pytest.raises(ValueError):
            ArraySpec.from_dict(dict(spec.to_dict(), **{field: count + 0.5}))

    @PROPERTY
    @given(spec=array_specs(), field=st.sampled_from(ARRAY_COUNTS))
    def test_array_unset_count(self, spec, field):
        with pytest.raises(ValueError, match=field):
            ArraySpec.from_dict(dict(spec.to_dict(), **{field: None}))
