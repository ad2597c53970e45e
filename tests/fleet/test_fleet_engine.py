"""Fleet engine tests: spec validation, invariance contracts, physics."""

import json
import os

import pytest

from repro.fleet import FleetEngine, FleetSpec, MitigationPolicy


#: Small fleet the bitwise-invariance tests share (the reference loop
#: runs it too, so keep it cheap: one year, short phases, 25 C).
SMALL = FleetSpec(n_devices=384, block_size=64, years=(1.0,),
                  phases_per_year=2, reads_per_phase=64,
                  temps_c=((25.0, 1.0),))

NSSA = MitigationPolicy(scheme="nssa")
ISSA = MitigationPolicy(scheme="issa")


def normalised(report):
    """Comparison report minus the ``engine`` tag (path-dependent)."""
    doc = json.loads(json.dumps(report))
    for summary in doc["policies"]:
        summary.pop("engine", None)
    return doc


class TestMitigationPolicy:
    def test_round_trip(self):
        policy = MitigationPolicy(scheme="issa", residual_imbalance=0.2,
                                  rejuvenation_interval_years=1.0,
                                  guardband_trim=0.1)
        assert MitigationPolicy.from_dict(policy.to_dict()) == policy
        assert policy.name == "issa-res0.2-rejuv1y-trim0.1"

    def test_validation(self):
        with pytest.raises(ValueError):
            MitigationPolicy(scheme="magic")
        with pytest.raises(ValueError):
            MitigationPolicy(residual_imbalance=1.5)
        with pytest.raises(ValueError):
            MitigationPolicy(guardband_trim=1.0)
        with pytest.raises(ValueError):
            MitigationPolicy(rejuvenation_interval_years=-1.0)
        with pytest.raises(ValueError):
            MitigationPolicy.from_dict({"scheme": "nssa", "bogus": 1})


class TestFleetSpec:
    def test_round_trip(self):
        assert FleetSpec.from_dict(SMALL.to_dict()) == SMALL

    def test_wire_form_is_json(self):
        blob = json.dumps(SMALL.to_dict())
        assert FleetSpec.from_dict(json.loads(blob)) == SMALL

    def test_block_bounds_cover_the_fleet(self):
        spec = FleetSpec(n_devices=1000, block_size=256)
        bounds = [spec.block_bounds(b) for b in range(spec.n_blocks)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1000
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_checkpoints_in_phases(self):
        spec = FleetSpec(years=(0.5, 2.0), phases_per_year=4)
        assert spec.checkpoint_phases() == (2, 8)
        assert spec.n_phases == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(n_devices=0)
        with pytest.raises(ValueError):
            FleetSpec(years=(3.0, 1.0))
        with pytest.raises(ValueError):
            FleetSpec(years=(0.3,), phases_per_year=2)  # partial phase
        with pytest.raises(ValueError):
            FleetSpec(workloads=(("not-a-workload", 1.0),))
        with pytest.raises(ValueError):
            FleetSpec(temps_c=((25.0, -1.0),))
        with pytest.raises(ValueError):
            FleetSpec.from_dict({"n_devices": 10, "bogus": 1})


class TestInvariance:
    """The tentpole contract: summaries are bitwise identical across
    every execution knob and the per-device reference loop."""

    def test_chunk_size_invariance(self):
        small = FleetEngine(SMALL, workers=1, chunk_size=64)
        large = FleetEngine(SMALL, workers=1, chunk_size=256)
        assert small.compare([NSSA, ISSA]) == large.compare([NSSA, ISSA])

    def test_worker_invariance(self):
        serial = FleetEngine(SMALL, workers=1, chunk_size=64)
        pooled = FleetEngine(SMALL, workers=2, chunk_size=64)
        assert serial.compare([NSSA, ISSA]) \
            == pooled.compare([NSSA, ISSA])

    def test_reference_loop_parity(self, monkeypatch):
        engine = FleetEngine(SMALL, workers=1, chunk_size=128)
        vector = engine.compare([NSSA, ISSA])
        monkeypatch.setenv("REPRO_NO_FLEETVEC", "1")
        reference = engine.compare([NSSA, ISSA])
        assert vector["policies"][0]["engine"] == "vector"
        assert reference["policies"][0]["engine"] == "reference"
        assert normalised(vector) == normalised(reference)

    def test_opt_out_zero_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FLEETVEC", "0")
        summary = FleetEngine(SMALL, workers=1).evaluate(NSSA)
        assert summary["engine"] == "vector"


class TestMemory:
    """Peak memory follows the chunk size, not the fleet size."""

    @staticmethod
    def peak_bytes(devices, chunk):
        import tracemalloc
        spec = FleetSpec(n_devices=devices, block_size=chunk, years=(1.0,),
                         phases_per_year=2, reads_per_phase=256,
                         temps_c=((25.0, 1.0),))
        engine = FleetEngine(spec, workers=1, chunk_size=chunk)
        tracemalloc.start()
        try:
            engine.evaluate(NSSA)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_bounded_by_the_chunk(self):
        base = self.peak_bytes(8192, 512)
        assert self.peak_bytes(16384, 512) <= 1.25 * base
        # The probe sees the block arrays: a 4x chunk shows up.
        assert self.peak_bytes(8192, 2048) >= 2.0 * base

    def test_one_partial_per_chunk(self, monkeypatch):
        from repro.fleet import engine as fleet_engine
        merged = []
        merge = fleet_engine._merge_year
        monkeypatch.setattr(
            fleet_engine, "_merge_year",
            lambda partials, index: merged.append(len(partials))
            or merge(partials, index))
        engine = FleetEngine(SMALL, workers=1, chunk_size=256)
        chunks = len(engine._chunks())
        assert chunks == 2 and SMALL.n_blocks == 6
        engine.evaluate(NSSA)
        assert merged == [chunks] * len(SMALL.years)


class TestPhysics:
    """Directional checks against the paper's claims."""

    @pytest.fixture(scope="class")
    def report(self):
        spec = FleetSpec(n_devices=2048, block_size=512, years=(1.0,),
                         phases_per_year=2, reads_per_phase=128,
                         temps_c=((125.0, 1.0),), swing_mv=60.0)
        return FleetEngine(spec, workers=1).compare([NSSA, ISSA])

    def test_issa_reduces_out_of_spec(self, report):
        nssa, issa = report["policies"]
        assert issa["years"][0]["fraction_out"] \
            <= nssa["years"][0]["fraction_out"]
        assert issa["years"][0]["offset_std_mv"] \
            < nssa["years"][0]["offset_std_mv"]

    def test_quantiles_are_ordered(self, report):
        for summary in report["policies"]:
            q = summary["years"][0]["quantiles_mv"]
            assert q["p50"] <= q["p90"] <= q["p99"] <= q["p99_9"]

    def test_workload_breakdown_covers_fleet(self, report):
        year = report["policies"][0]["years"][0]
        assert sum(w["n"] for w in year["workloads"].values()) \
            == year["n"]
        assert sum(w["out"] for w in year["workloads"].values()) \
            == year["out"]

    def test_guardband_trim_tightens_the_spec(self):
        spec = FleetSpec(n_devices=1024, block_size=256, years=(1.0,),
                         phases_per_year=2, reads_per_phase=128,
                         temps_c=((125.0, 1.0),), swing_mv=60.0)
        engine = FleetEngine(spec, workers=1)
        plain = engine.evaluate(NSSA)
        trimmed = engine.evaluate(
            MitigationPolicy(scheme="nssa", guardband_trim=0.3))
        assert trimmed["years"][0]["fraction_out"] \
            >= plain["years"][0]["fraction_out"]
        # Trim shares the no-trim policy's draws (CRN), so the offset
        # distribution itself is untouched — only the spec moves.
        assert trimmed["years"][0]["offset_std_mv"] \
            == plain["years"][0]["offset_std_mv"]

    def test_rejuvenation_lowers_stress(self):
        spec = FleetSpec(n_devices=1024, block_size=256, years=(2.0,),
                         phases_per_year=2, reads_per_phase=128,
                         temps_c=((125.0, 1.0),))
        engine = FleetEngine(spec, workers=1)
        always_on = engine.evaluate(NSSA)
        rejuvenated = engine.evaluate(MitigationPolicy(
            scheme="nssa", rejuvenation_interval_years=1.0))
        assert rejuvenated["years"][0]["offset_std_mv"] \
            < always_on["years"][0]["offset_std_mv"]
