"""Fleet engine tests: spec validation, invariance contracts, physics."""

import json

import numpy as np
import pytest

from repro.aging.occupancy import ac_occupancy
from repro.core.parallel import run_tasks, worker_share
from repro.fleet import FleetEngine, FleetSpec, MitigationPolicy, sampling
from repro.fleet.sampling import (FAST_TRAP_EXPONENT, _lane_shifts_vector,
                                  block_draws, evaluate_block)
from repro.spice.backends import compiled


#: Small fleet the bitwise-invariance tests share (one year, short
#: phases, 25 C).
SMALL = FleetSpec(n_devices=384, block_size=64, years=(1.0,),
                  phases_per_year=2, reads_per_phase=64,
                  temps_c=((25.0, 1.0),))

NSSA = MitigationPolicy(scheme="nssa")
ISSA = MitigationPolicy(scheme="issa")

#: Three checkpoints over two blocks with the default mixed corners,
#: for the engine-level walk-layout checks.
LAYOUT = FleetSpec(n_devices=256, block_size=128, years=(0.5, 1.0, 2.0),
                   phases_per_year=4, reads_per_phase=64)

#: ``(policy, WALK_SLICE, thread CPU slots)`` of the walk-vs-chain
#: check; ``None`` keeps the module's slice and the process's slots.
WALK_CASES = [pytest.param(policy, None, None, id=name)
              for policy, name in ((NSSA, "nssa"), (ISSA, "issa"))] + [
    pytest.param(policy, walk_slice, slots,
                 id=f"{name}-slice{walk_slice or 'default'}-slots{slots}")
    for policy, name in ((NSSA, "nssa"), (ISSA, "issa"))
    for walk_slice in (1, 7, None)
    for slots in (1, 2, 3)]


@pytest.fixture
def walk_layout(monkeypatch):
    """Set the walk's slice size and this thread's CPU slots.

    ``None`` leaves either as it is; the slots are reset afterwards.
    """
    def apply(walk_slice, slots):
        if walk_slice is not None:
            monkeypatch.setattr(sampling, "WALK_SLICE", walk_slice)
        compiled.set_thread_cpu_slots(slots)
    yield apply
    compiled.set_thread_cpu_slots(None)


def walk_threads_in_worker(spec, policy):
    """Pool-worker task: this process's CPU slots, and the most threads
    one of block 0's trap walks ran on (1 when it walked inline)."""
    widths = [1]

    class Recording(sampling.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    walker, walk_slice = sampling.ThreadPoolExecutor, sampling.WALK_SLICE
    sampling.ThreadPoolExecutor, sampling.WALK_SLICE = Recording, 7
    try:
        evaluate_block(spec, policy, 0)
    finally:
        sampling.ThreadPoolExecutor, sampling.WALK_SLICE = walker, walk_slice
    return compiled.cpu_slots(), max(widths)


def lane_shifts_per_device(lane, duty, phase_s, checkpoints, size):
    """Per-checkpoint dVth, chaining the public ``ac_occupancy`` one
    device's trap slice and one phase at a time."""
    shifts = [np.zeros(size) for _ in checkpoints]
    for device in range(size):
        lo, hi = int(lane.starts[device]), int(lane.starts[device + 1])
        if lo == hi:
            continue
        zero = np.zeros(hi - lo, dtype=np.intp)
        prob = np.zeros(hi - lo)
        mark = 0
        for phase in range(duty.shape[0]):
            prob = ac_occupancy(phase_s, duty[phase, device],
                                lane.tau_c_eff[lo:hi], lane.tau_e[lo:hi],
                                p_initial=prob)
            if phase + 1 == checkpoints[mark]:
                contrib = np.where(lane.u_occ[lo:hi] < prob,
                                   lane.eta[lo:hi], 0.0)
                # bincount sums in element order, as the vector walk's
                # grouped bincount does over this device's trap run.
                shifts[mark][device] = np.bincount(
                    zero, weights=contrib, minlength=1)[0]
                mark += 1
                if mark == len(checkpoints):
                    break
    return shifts


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
    """Summaries are bitwise identical across every execution knob, and
    the vector trap walk equals the per-device ``ac_occupancy`` chain."""

    def test_chunk_size_invariance(self):
        small = FleetEngine(SMALL, workers=1, chunk_size=64)
        large = FleetEngine(SMALL, workers=1, chunk_size=256)
        assert small.compare([NSSA, ISSA]) == large.compare([NSSA, ISSA])

    def test_worker_invariance(self):
        serial = FleetEngine(SMALL, workers=1, chunk_size=64)
        pooled = FleetEngine(SMALL, workers=2, chunk_size=64)
        assert serial.compare([NSSA, ISSA]) \
            == pooled.compare([NSSA, ISSA])

    @pytest.mark.parametrize("policy, walk_slice, slots", WALK_CASES)
    def test_vector_walk_matches_per_device_chain(self, policy, walk_slice,
                                                  slots, walk_layout):
        walk_layout(walk_slice, slots)
        spec = FleetSpec(n_devices=64, block_size=64, years=(0.5, 1.0),
                         phases_per_year=4, reads_per_phase=64)
        draws = block_draws(spec, policy, 0)
        checkpoints = spec.checkpoint_phases()
        for lane, duty in ((draws.down, draws.duty_down),
                           (draws.downbar, draws.duty_downbar)):
            # Both branches of the walk run: traps that keep memory
            # across phases and traps that settle within one.
            fast = spec.phase_s / lane.tau_e >= FAST_TRAP_EXPONENT
            assert fast.any() and not fast.all()
            vector = _lane_shifts_vector(lane, duty, spec.phase_s,
                                         checkpoints, draws.size)
            chained = lane_shifts_per_device(lane, duty, spec.phase_s,
                                             checkpoints, draws.size)
            assert len(vector) == len(chained) == len(checkpoints)
            assert all(np.count_nonzero(v) > 1 for v in vector)
            for got, want in zip(vector, chained):
                assert got.tobytes() == want.tobytes()

    def test_compare_invariant_to_walk_slices_and_threads(
            self, walk_layout):
        reference = FleetEngine(LAYOUT, workers=1).compare([NSSA, ISSA])
        for walk_slice in (7, 1000, None):
            for slots in (1, 2, 3):
                walk_layout(walk_slice, slots)
                engine = FleetEngine(LAYOUT, workers=1)
                assert engine.compare([NSSA, ISSA]) == reference, \
                    (walk_slice, slots)
        walk_layout(None, None)
        pooled = FleetEngine(LAYOUT, workers=2, chunk_size=128)
        assert pooled.compare([NSSA, ISSA]) == reference

    def test_one_slot_share_walks_inline(self, walk_layout, monkeypatch):
        """A service consumer holding one CPU slot starts no threads."""
        def refuse(*args, **kwargs):
            raise AssertionError("walk threads on a one-slot share")

        walk_layout(7, 1)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", refuse)
        evaluate_block(LAYOUT, NSSA, 0)

    def test_pool_workers_walk_on_their_share(self):
        """Each ``run_tasks`` worker walks on ``worker_share`` threads."""
        share = worker_share(2)
        results = run_tasks(walk_threads_in_worker,
                            [(LAYOUT, NSSA), (LAYOUT, ISSA)], workers=2)
        assert results == [(share, share)] * 2

    def test_summaries_name_the_vector_walk(self):
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
