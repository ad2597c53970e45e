"""ArrayEngine: fan-out parity, invariance, bank aggregation."""

import json

import pytest

from repro.analysis.perf import PERF
from repro.array import ArrayEngine, ArraySpec, characterize_column
from repro.array.characterizer import (build_column_design,
                                       sense_input_load)
from repro.circuits.sense_amp import build_nssa

SMALL = ArraySpec(rows=16, columns=2, words_per_row=1, mux_factor=1,
                  mc=6, times_s=(0.0,), offset_iterations=10)
AGED = ArraySpec(rows=16, columns=2, words_per_row=1, mux_factor=1,
                 mc=6, times_s=(0.0, 1e8), offset_iterations=10)
#: Eight columns of 16 samples: the default group packs all eight into
#: one 128-sample batch, past the guided offset search's 96-sample floor.
PACKED = ArraySpec(rows=16, columns=8, words_per_row=1, mux_factor=1,
                   mc=16, times_s=(0.0, 1e8), offset_iterations=10)


def normalised(doc):
    return json.loads(json.dumps(doc))


class TestLoadInjection:
    def test_load_grows_with_geometry(self):
        small = sense_input_load(ArraySpec(rows=64, columns=4))
        tall = sense_input_load(ArraySpec(rows=256, columns=4))
        wide_mux = sense_input_load(ArraySpec(rows=64, columns=4,
                                              words_per_row=8,
                                              mux_factor=8))
        assert tall > small
        assert wide_mux > small

    def test_design_carries_injected_load(self):
        bare = {c.name: c.capacitance
                for c in build_nssa().circuit.capacitors}
        loaded = build_column_design(SMALL, "nssa").circuit
        load = sense_input_load(SMALL)
        for cap in loaded.capacitors:
            expected = bare[cap.name] + (load if cap.name in
                                         ("Cs", "Csbar") else 0.0)
            assert cap.capacitance == pytest.approx(expected)

    def test_load_changes_the_cache_identity(self, tmp_path):
        """Geometry lands in the netlist, so the content-addressed
        cache key can never alias two geometries."""
        from repro.core.cache import ResultCache
        from repro.core.experiment import ExperimentCell
        from repro.models import Environment
        cache = ResultCache(tmp_path)
        cell = ExperimentCell("nssa", None, 0.0, Environment.nominal())
        keys = set()
        for spec in (SMALL, ArraySpec(rows=256, columns=2,
                                      words_per_row=1, mux_factor=1,
                                      mc=6, times_s=(0.0,))):
            design = build_column_design(spec, "nssa")
            keys.add(cache.key_for_cell(cell, design=design))
        assert len(keys) == 2


class TestFanOutParity:
    def test_engine_rows_match_independent_single_runs(self):
        """The m-column bank equals m independent per-column runs."""
        report = ArrayEngine(SMALL, workers=1).characterize("nssa")
        rows = report["checkpoints"][0]["columns"]
        for column, row in enumerate(rows):
            direct = characterize_column(SMALL, "nssa", 0.0, column)
            assert row == direct

    def test_bitwise_invariant_to_workers_and_chunks(self):
        baseline = normalised(
            ArrayEngine(AGED, workers=1, chunk_size=1).compare())
        for workers, chunk in ((1, 2), (2, 1), (2, 2)):
            doc = normalised(ArrayEngine(AGED, workers=workers,
                                         chunk_size=chunk).compare())
            assert doc == baseline

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            ArrayEngine(SMALL, chunk_size=0)


class TestPackedGroups:
    def test_packing_cannot_move_a_bit(self):
        """Packed groups (guided search), single columns (plain
        bisection) and a short last group give the same document."""
        PERF.reset()
        packed = normalised(ArrayEngine(PACKED, workers=1).compare())
        counters = PERF.snapshot()["counters"]
        assert counters["array.tasks"] == 2 * len(PACKED.times_s)
        assert counters["offset.guided_samples"] > 0
        for workers, chunk in ((2, None), (1, 1), (2, 1), (1, 3), (2, 3)):
            doc = normalised(ArrayEngine(PACKED, workers=workers,
                                         chunk_size=chunk).compare())
            assert doc == packed, (workers, chunk)

    def test_default_group_fills_the_sample_budget(self):
        from repro.array.engine import PACK_SAMPLES
        groups = ArrayEngine(PACKED)._column_groups()
        assert groups == [tuple(range(8))]
        wide = ArraySpec(rows=16, columns=16, mc=24)
        assert len(ArrayEngine(wide)._column_groups()[0]) == \
            PACK_SAMPLES // 24
        deep = ArraySpec(rows=16, columns=4, mc=400)
        assert ArrayEngine(deep)._column_groups() == \
            [(0,), (1,), (2,), (3,)]


class TestBankAggregation:
    @pytest.fixture(scope="class")
    def report(self):
        return ArrayEngine(AGED, workers=1).compare()

    def test_bank_spec_at_least_worst_column(self, report):
        for scheme in ("nssa", "issa"):
            for checkpoint in report["schemes"][scheme]["checkpoints"]:
                bank = checkpoint["bank"]
                assert bank["bank_spec_mv"] >= \
                    bank["worst_spec_mv"] - 1e-6
                assert bank["worst_spec_mv"] >= bank["median_spec_mv"]

    def test_aging_degrades_nssa_more_than_issa(self, report):
        aged = report["comparison"][-1]
        fresh = report["comparison"][0]
        nssa_growth = aged["nssa_spec_mv"] - fresh["nssa_spec_mv"]
        issa_growth = aged["issa_spec_mv"] - fresh["issa_spec_mv"]
        assert nssa_growth > issa_growth
        assert aged["issa_spec_reduction_mv"] > 0.0
        assert aged["issa_latency_gain_pct"] > 0.0

    def test_latency_composed_from_bitline_and_sensing(self, report):
        from repro.memory.array import ArrayTiming
        timing = ArrayTiming()
        for checkpoint in report["schemes"]["nssa"]["checkpoints"]:
            bank = checkpoint["bank"]
            floor_ps = (timing.decode_s + timing.output_s) * 1e12
            assert bank["read_ps"] == pytest.approx(
                floor_ps + bank["develop_ps"] + bank["worst_delay_ps"])

    def test_lifetime_tracks_in_spec_flags(self, report):
        for scheme in ("nssa", "issa"):
            checkpoints = report["schemes"][scheme]["checkpoints"]
            life = report["lifetime"][scheme]
            in_spec = [c["time_s"] for c in checkpoints
                       if c["bank"]["in_spec"]]
            assert life["last_in_spec_s"] == \
                (in_spec[-1] if in_spec else None)

    def test_geometry_and_bitline_stamped(self, report):
        assert report["geometry"] == AGED.geometry()
        assert report["bitline"]["model"] == "pi"
        assert report["bitline"]["resistance_ohm"] > 0.0

    def test_tight_swing_fails_nssa_first(self):
        """With a tight provisioned swing the aged NSSA bank drops out
        of spec while ISSA holds — the paper's verdict at bank scale."""
        report = ArrayEngine(AGED, workers=1).compare()
        aged = report["comparison"][-1]
        fresh = report["comparison"][0]
        # A swing NSSA meets when fresh but not once aged (ISSA stays
        # comfortably under both of its requirements).
        margin = AGED.noise_margin_mv
        tight = (fresh["nssa_spec_mv"] + aged["nssa_spec_mv"]) / 2 \
            + margin
        assert aged["issa_spec_mv"] + margin < tight
        import dataclasses
        spec = dataclasses.replace(AGED, swing_mv=tight)
        tight_report = ArrayEngine(spec, workers=1).compare()
        assert tight_report["lifetime"]["nssa"]["first_out_of_spec_s"] \
            == 1e8
        assert tight_report["lifetime"]["issa"]["first_out_of_spec_s"] \
            is None
