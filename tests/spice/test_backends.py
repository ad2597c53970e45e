"""Tests for the pluggable solver backends of the reduced hot loop.

Covers the registry and resolution rules (explicit argument, the
``REPRO_BACKEND`` environment variable), the compiled backend's flavor
derivation (``cc`` when the C kernel loads, the reference kernel
otherwise, bit for bit the numpy backend) and its first-use self-check,
step-kernel parity against the reference ``_ReducedStepper`` path on
the sense amplifiers and on randomised topologies, the fused ``cc``
transient (bitwise equal to the stepped loop over the per-step ``cc``
kernel, and invariant to its thread count), the CPU-slot rule, the
kernel cache tag, and the characterisation-level contract: offsets
through the compiled backend are **bit-identical** to the numpy
backend.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.sense_amp import ReadTiming, build_issa, build_nssa
from repro.core.calibration import default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.core.testbench import SenseAmpTestbench
from repro.models import Environment
from repro.spice.backends import (BACKEND_ENV, available_backends,
                                  backend_host_info, get_backend,
                                  resolve_backend)
from repro.spice.backends import _cc
from repro.spice.backends import compiled as compiled_mod
from repro.spice.backends.compiled import (CcStepKernel, CompiledBackend,
                                           _reset_flavor_cache)
from repro.spice.backends.maps import ReducedKernelMaps
from repro.spice.backends.numpy_backend import NumpyStepKernel
from repro.spice.mna import MnaSystem
from repro.spice.solver import NewtonOptions
from repro.spice.transient import DecisionSpec, run_transient
from repro.spice.waveforms import Pulse
from repro.workloads import paper_workload

from tests.spice.test_reduced import random_circuit

#: Step-solution agreement between kernel implementations [V].  The
#: backends share bit-identical *offsets* (sign decisions), not raw
#: trajectories, which agree to well below Newton tolerance.
STEP_ATOL = 1e-9

needs_cc = pytest.mark.skipif(not _cc.compiler_available(),
                              reason="no C compiler on PATH")


@pytest.fixture()
def clean_flavor():
    """Sweep-safe flavor state: reset before and after the test."""
    _reset_flavor_cache()
    yield
    _reset_flavor_cache()


def aged_cell(kind="nssa"):
    return ExperimentCell(kind, paper_workload("80r0"), 1e8,
                          Environment.from_celsius(25.0, 1.0))


def sense_amp_system(build=build_nssa, batch=5, seed=3):
    design = build()
    rng = np.random.default_rng(seed)
    system = MnaSystem(design.circuit, 298.15, batch_size=batch)
    system.set_vth_shifts({name: rng.normal(0.0, 0.03, batch)
                           for name in system.vth_shifts()})
    return system, rng


def solve_one_step(kernel, system, v_prev, t_new, batch):
    """Drive one begin_step/solve cycle; returns (v_new, iterations)."""
    v_new = v_prev.copy()
    system.apply_known(v_new, t_new)
    kernel.begin_step(t_new, v_prev)
    iterations = kernel.solve(v_new, np.arange(batch))
    return v_new, iterations


def step_state(system, rng, batch):
    v_prev = system.initial_full_vector(0.0)
    v_prev[:, system.unknown_idx] = rng.uniform(
        0.2, 0.8, (batch, system.n_unknown))
    return v_prev


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ["compiled", "numpy"]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            get_backend("fortran")

    def test_instances_are_shared(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("compiled") is get_backend("compiled")

    def test_cache_tokens_are_distinct(self):
        tokens = [get_backend(name).cache_token()
                  for name in available_backends()]
        assert len({tuple(sorted(t.items())) for t in tokens}) == \
            len(tokens)
        for token in tokens:
            assert set(token) == {"name", "kernel"}

    def test_host_info_names_the_backend(self):
        info = backend_host_info("compiled")
        assert info["backend"] == "compiled"
        assert info["kernel_version"] == compiled_mod.KERNEL_VERSION
        assert "flavor" in info and "cc" in info
        assert info["cc"]["libm"] in (None, *_cc.LIBM_PATHS.values())
        assert info["cpu_slots"] >= 1

    def test_cache_token_names_the_kernel_version(self):
        # Bumped whenever trajectories can move (fused-4: the LU solve
        # runs samples in SIMD lanes with explicit fused multiply-
        # subtracts, where GCC used to contract the back-substitution
        # only in part), so results of an older kernel miss the cache
        # instead of aliasing.
        assert get_backend("compiled").cache_token() == {
            "name": "compiled", "kernel": "fused-4"}


class TestResolution:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None).name == "compiled"

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert resolve_backend("compiled").name == "compiled"

    def test_unknown_environment_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fortran")
        with pytest.raises(ValueError, match="unknown solver backend"):
            resolve_backend(None)

    def test_instance_passes_through(self):
        backend = get_backend("compiled")
        assert resolve_backend(backend) is backend

    def test_instance_beats_environment(self, monkeypatch):
        # A backend *object* is the parity tests' way to pin a backend.
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert resolve_backend(get_backend("compiled")).name == "compiled"


class TestFlavorLadder:
    """``cc`` when the C kernel loads, the reference kernel otherwise."""

    def test_numpy_flavor_forced(self, monkeypatch, clean_flavor):
        monkeypatch.setattr(_cc, "load_kernel", lambda: (None, 0.0, None))
        backend = CompiledBackend()
        assert backend.describe()["flavor"] == "numpy"
        system, _ = sense_amp_system(batch=3)
        kernel = backend.step_kernel(system, system.c_matrix / 1e-12,
                                     1e-12, 3, NewtonOptions())
        assert isinstance(kernel, NumpyStepKernel)

    @needs_cc
    def test_cc_flavor(self, clean_flavor):
        info = CompiledBackend().describe()
        assert info["flavor"] == "cc"
        assert info["cc"]["available"]

    def test_auto_never_fails(self, clean_flavor):
        assert CompiledBackend().describe()["flavor"] in ("cc", "numpy")


class TestKernelCache:
    def test_kernel_reused_per_system(self, clean_flavor):
        backend = CompiledBackend()
        system, _ = sense_amp_system(batch=4)
        args = (system, system.c_matrix / 1e-12, 1e-12, 4, NewtonOptions())
        first = backend.step_kernel(*args)
        assert backend.step_kernel(*args) is first

    def test_cached_kernels_do_not_pin_the_system(self, clean_flavor):
        # Kernels live in the system's cache; a strong back-reference
        # would leave each finished system to the cyclic collector.
        import gc
        import weakref
        backend = CompiledBackend()
        system, _ = sense_amp_system(batch=4)
        backend.step_kernel(system, system.c_matrix / 1e-12, 1e-12, 4,
                            NewtonOptions())
        ref = weakref.ref(system)
        gc.disable()
        try:
            del system
            assert ref() is None
        finally:
            gc.enable()

    def test_dt_and_options_split_the_cache(self, clean_flavor):
        backend = CompiledBackend()
        system, _ = sense_amp_system(batch=4)
        base = backend.step_kernel(system, system.c_matrix / 1e-12,
                                   1e-12, 4, NewtonOptions())
        other_dt = backend.step_kernel(system, system.c_matrix / 2e-12,
                                       2e-12, 4, NewtonOptions())
        other_opts = backend.step_kernel(
            system, system.c_matrix / 1e-12, 1e-12, 4,
            NewtonOptions(vtol=1e-8))
        assert base is not other_dt and base is not other_opts


class TestFallbackGuards:
    """Out-of-contract configurations use the exact reference kernel."""

    def test_deviceless_falls_back(self):
        from repro.spice.netlist import Circuit
        from repro.spice.waveforms import Dc
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "a", Dc(1.0))
        circuit.add_resistor("r", "a", "b", 1e3)
        circuit.add_capacitor("c", "b", "0", 1e-15)
        system = MnaSystem(circuit, 300.0, batch_size=2)
        kernel = CompiledBackend().step_kernel(
            system, system.c_matrix / 1e-12, 1e-12, 2, NewtonOptions())
        assert isinstance(kernel, NumpyStepKernel)

    def test_oversized_system_uses_numpy_flavor(self, monkeypatch,
                                                clean_flavor):
        monkeypatch.setattr(_cc, "MAX_NU", 1)
        backend = CompiledBackend()
        system, _ = sense_amp_system(batch=3)
        kernel = backend.step_kernel(system, system.c_matrix / 1e-12,
                                     1e-12, 3, NewtonOptions())
        assert isinstance(kernel, NumpyStepKernel)

    def test_selfcheck_failure_demotes_process(self, monkeypatch,
                                               clean_flavor):
        monkeypatch.setattr(compiled_mod, "_SELFCHECK", "failed")
        backend = CompiledBackend()
        assert backend.describe()["flavor"] == "numpy"
        system, _ = sense_amp_system(batch=3)
        kernel = backend.step_kernel(system, system.c_matrix / 1e-12,
                                     1e-12, 3, NewtonOptions())
        assert isinstance(kernel, NumpyStepKernel)


def fused_kernels(maps, system, batch, options) -> dict:
    """The fused kernels under test: cc if it loads."""
    lib, _, _ = _cc.load_kernel()
    if lib is None:
        return {}
    return {"cc": CcStepKernel(maps, system, batch, options, lib)}


class TestStepKernelParity:
    """Fused kernels agree with the reference stepper per step."""

    def _compare(self, system, rng, batch):
        dt = 1e-12
        c_over_dt = system.c_matrix / dt
        options = NewtonOptions()
        v_prev = step_state(system, rng, batch)
        t_new = 1e-11

        reference = NumpyStepKernel(system, c_over_dt, batch, options)
        v_ref, it_ref = solve_one_step(reference, system, v_prev, t_new,
                                       batch)

        maps = ReducedKernelMaps(system, c_over_dt, options)
        kernels = fused_kernels(maps, system, batch, options)
        for label, kernel in kernels.items():
            v_got, _ = solve_one_step(kernel, system, v_prev, t_new,
                                      batch)
            np.testing.assert_allclose(
                v_got, v_ref, rtol=0.0, atol=STEP_ATOL,
                err_msg=f"{label} kernel diverged from the stepper")

    @pytest.mark.parametrize("build", [build_nssa, build_issa])
    def test_sense_amps(self, build):
        system, rng = sense_amp_system(build, batch=6, seed=11)
        self._compare(system, rng, 6)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomised_topologies(self, seed):
        rng = np.random.default_rng(2000 + seed)
        circuit = random_circuit(rng)
        batch = 4
        system = MnaSystem(circuit, 300.0, batch_size=batch)
        shifts = {name: rng.normal(0.0, 0.02, batch)
                  for name in system.vth_shifts()}
        if shifts:
            system.set_vth_shifts(shifts)
        if system.unknown_idx.size == 0:
            pytest.skip("topology has no unknown nodes")
        self._compare(system, rng, batch)

    def test_partial_active_rows(self):
        """Kernels must leave inactive rows untouched."""
        batch = 6
        system, rng = sense_amp_system(batch=batch, seed=21)
        dt = 1e-12
        options = NewtonOptions()
        c_over_dt = system.c_matrix / dt
        maps = ReducedKernelMaps(system, c_over_dt, options)
        v_prev = step_state(system, rng, batch)
        active = np.array([0, 2, 5])
        frozen = np.array([1, 3, 4])
        kernels = fused_kernels(maps, system, batch, options)
        for kernel in (NumpyStepKernel(system, c_over_dt, batch, options),
                       *kernels.values()):
            v_new = v_prev.copy()
            system.apply_known(v_new, 1e-11)
            snapshot = v_new[frozen].copy()
            kernel.begin_step(1e-11, v_prev)
            kernel.solve(v_new, active)
            np.testing.assert_array_equal(v_new[frozen], snapshot)


class TestTransientParity:
    @pytest.mark.parametrize("build", [build_nssa, build_issa])
    def test_probes_agree(self, build):
        design = build()
        batch = 5
        rng = np.random.default_rng(9)
        names = MnaSystem(design.circuit, 298.15).vth_shifts()
        shifts = {name: rng.normal(0.0, 0.02, batch) for name in names}
        results = {}
        for backend in ("numpy", "compiled"):
            system = MnaSystem(design.circuit, 298.15, batch_size=batch)
            system.set_vth_shifts(shifts)
            results[backend] = run_transient(
                system, t_stop=6e-11, dt=1e-12,
                probes=list(design.output_nodes), extrapolate=True,
                backend=get_backend(backend))
        a, b = results["numpy"], results["compiled"]
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_allclose(b.final, a.final, rtol=0.0,
                                   atol=STEP_ATOL)
        for node in a.voltages:
            np.testing.assert_allclose(b.voltages[node],
                                       a.voltages[node], rtol=0.0,
                                       atol=STEP_ATOL)


class TestOffsetsBitwise:
    """The characterisation contract: offsets are backend-independent."""

    @pytest.mark.parametrize("kind", ["nssa", "issa"])
    def test_run_cell_offsets_bit_identical(self, kind):
        results = {}
        for backend in ("numpy", "compiled"):
            results[backend] = run_cell(
                aged_cell(kind),
                settings=default_mc_settings(size=6, seed=2017),
                timing=ReadTiming(dt=1e-12), offset_iterations=5,
                measure_delay=False,
                backend=get_backend(backend))
        np.testing.assert_array_equal(
            results["compiled"].offset.offsets,
            results["numpy"].offset.offsets)
        assert results["compiled"].offset.spec == \
            results["numpy"].offset.spec

    def test_delays_agree_within_a_femtosecond(self):
        """Delay crossings interpolate trajectories that agree to solver
        tolerance, so delays may differ by a few ulp, never by 1 fs."""
        results = {
            backend: run_cell(aged_cell(),
                              settings=default_mc_settings(size=6,
                                                           seed=2017),
                              timing=ReadTiming(dt=1e-12),
                              offset_iterations=5,
                              backend=get_backend(backend))
            for backend in ("numpy", "compiled")}
        np.testing.assert_array_equal(
            results["compiled"].offset.offsets,
            results["numpy"].offset.offsets)
        assert abs(results["compiled"].delay_s
                   - results["numpy"].delay_s) <= 1e-15

    def test_compiled_counters_flow(self):
        from repro.analysis.perf import PERF
        PERF.reset()
        run_cell(aged_cell(), settings=default_mc_settings(size=4,
                                                           seed=2017),
                 timing=ReadTiming(dt=1e-12), offset_iterations=4,
                 measure_delay=False, backend=get_backend("compiled"))
        counters = PERF.snapshot()["counters"]
        assert counters.get("spice.backend.fused_steps", 0) > 0
        assert counters.get("spice.backend.fused_iterations", 0) > 0
        assert counters.get("newton.solves", 0) > 0

    def test_numpy_backend_leaves_no_fused_counters(self):
        from repro.analysis.perf import PERF
        PERF.reset()
        run_cell(aged_cell(), settings=default_mc_settings(size=4,
                                                           seed=2017),
                 timing=ReadTiming(dt=1e-12), offset_iterations=4,
                 measure_delay=False, backend="numpy")
        counters = PERF.snapshot()["counters"]
        assert "spice.backend.fused_steps" not in counters


# -- the fused cc transient ---------------------------------------------------

def bits(array) -> np.ndarray:
    """Bit pattern of a float array (NaN- and signed-zero-exact)."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_results_bitwise(a, b) -> None:
    np.testing.assert_array_equal(bits(a.times), bits(b.times))
    assert list(a.voltages) == list(b.voltages)
    for node in a.voltages:
        np.testing.assert_array_equal(bits(a.voltages[node]),
                                      bits(b.voltages[node]), err_msg=node)
    np.testing.assert_array_equal(bits(a.final), bits(b.final))
    assert a.newton_iterations == b.newton_iterations
    assert (a.decided is None) == (b.decided is None)
    if a.decided is not None:
        np.testing.assert_array_equal(a.decided, b.decided)
    assert (a.states is None) == (b.states is None)
    if a.states is not None:
        np.testing.assert_array_equal(bits(a.states), bits(b.states))


@pytest.fixture()
def cc_backend(monkeypatch):
    """A compiled backend on the cc flavor with the self-check passed."""
    if not _cc.compiler_available():
        pytest.skip("no C compiler on PATH")
    _reset_flavor_cache()
    backend = CompiledBackend()
    assert backend.describe()["flavor"] == "cc"
    monkeypatch.setattr(compiled_mod, "_SELFCHECK", "ok")
    yield backend
    _reset_flavor_cache()


def stepped(monkeypatch):
    """Route cc transients through the Python loop over the step kernel."""
    monkeypatch.setattr(CcStepKernel, "fused_transient", lambda self: None)


def run_counted(scenario, *args):
    from repro.analysis.perf import PERF
    PERF.reset()
    out = scenario(*args)
    return out, PERF.snapshot()["counters"]


def sa_scenario(build, batch, backend):
    """Offset-search-shaped reads: fused 2x endpoints, then a seeded,
    masked, early-deciding read, then an unrecorded delay read."""
    bench = SenseAmpTestbench(build(), Environment.from_celsius(25.0, 1.0),
                              batch_size=batch, timing=ReadTiming(dt=1e-12),
                              backend=backend)
    rng = np.random.default_rng(batch)
    bench.set_vth_shifts({name: rng.normal(0.0, 0.03, batch)
                          for name in bench.system.vth_shifts()})
    sign_hi, sign_lo = bench.resolve_sign_pair(0.08, -0.08)
    seed = bench._trajectories[("sign", False, None)]
    vin = rng.uniform(-0.03, 0.03, batch)
    mask = rng.random(batch) > 0.25
    mask[0] = True
    read = bench.run_read(vin, probes=("s", "sbar"),
                          decision=bench.decision_spec(), sample_mask=mask,
                          guess_trajectory=seed, record_states=True)
    out_a, out_b = bench.design.output_nodes
    delay = bench.run_read(vin, decision=DecisionSpec(
        out_a, out_b, threshold=0.8, t_min=bench.timing.t_enable_mid))
    return sign_hi, sign_lo, np.array(seed), read, delay


def assert_sa_bitwise(a, b) -> None:
    for x, y in zip(a[:3], b[:3]):
        np.testing.assert_array_equal(bits(x), bits(y))
    assert_results_bitwise(a[3], b[3])
    assert_results_bitwise(a[4], b[4])


def random_scenario(seed, backend):
    """Two transients on a randomised topology (the second seeded from
    the first and masked); odd seeds add a batched current source."""
    from tests.spice.test_reduced import random_circuit
    rng = np.random.default_rng(2000 + seed)
    circuit = random_circuit(rng)
    batch = 5
    if seed % 2:
        circuit.add_isource("ip", "a", "b", Pulse(
            0.0, np.linspace(0.5e-6, 1.5e-6, 5), delay=5e-12,
            t_rise=5e-12, t_fall=5e-12, width=1e-11, period=4e-11))
    system = MnaSystem(circuit, 300.0, batch_size=batch)
    shifts = {name: rng.normal(0.0, 0.02, batch)
              for name in system.vth_shifts()}
    if shifts:
        system.set_vth_shifts(shifts)
    results = []
    try:
        first = run_transient(system, t_stop=3e-11, dt=1e-12,
                              probes=["a", "b"], extrapolate=True,
                              record_states=True, backend=backend)
        results.append(first)
        results.append(run_transient(
            system, t_stop=3e-11, dt=1e-12, probes=["c", "d"],
            sample_mask=np.array([True, False, True, True, False]),
            guess_trajectory=first.states, extrapolate=True,
            record_states=True, backend=backend))
    except (np.linalg.LinAlgError, compiled_mod.ConvergenceError) as exc:
        results.append(type(exc))
    return results


#: Samples in the shared pool of the lane-boundary cases.
LANE_POOL = 17

#: (pool rows, sample mask) around the 4- and 8-lane vector-libm
#: boundaries: whole batches of 1/7/8/9/17, and masks that leave 1-3
#: active samples in a lane tail (the kernel packs active samples).
LANE_CASES = (
    (range(1), None), (range(7), None), (range(8), None),
    (range(9), None), (range(17), None),
    (range(7), [1, 5]), (range(9), [8]),
    (range(17), [0, 1, 2, 3, 4, 5, 6, 8, 9, 16]),
    (range(17), [2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 15]),
    (range(8, 17), [9, 12, 16]),
)


def lane_reads(rows, active, backend):
    """An unseeded read recording states, then a read seeded from it,
    masked to the ``active`` pool rows and stopped by the latch
    decision, over ``rows`` of a shared sample pool."""
    rows = np.asarray(rows)
    bench = SenseAmpTestbench(build_nssa(),
                              Environment.from_celsius(25.0, 1.0),
                              batch_size=rows.size,
                              timing=ReadTiming(dt=1e-12), backend=backend)
    rng = np.random.default_rng(LANE_POOL)
    bench.set_vth_shifts({name: rng.normal(0.0, 0.03, LANE_POOL)[rows]
                          for name in bench.system.vth_shifts()})
    vin = rng.uniform(-0.02, 0.02, LANE_POOL)[rows]
    mask = None if active is None else np.isin(rows, active)
    first = bench.run_read(vin, probes=("s", "sbar"), record_states=True)
    read = bench.run_read(vin, probes=("s", "sbar"),
                          decision=bench.decision_spec(), sample_mask=mask,
                          guess_trajectory=first.states,
                          record_states=True)
    return first, read


def assert_sample_matches_solo(runs, column, solo) -> None:
    """Sample ``column`` of batched reads equals a batch-1 run's bits;
    after the solo run stopped (decided) the sample stays frozen."""
    for batched, alone in zip(runs, solo):
        steps = alone.times.size
        np.testing.assert_array_equal(bits(batched.times[:steps]),
                                      bits(alone.times))
        states = batched.states[:, column]
        np.testing.assert_array_equal(bits(states[:steps]),
                                      bits(alone.states[:, 0]))
        np.testing.assert_array_equal(
            bits(states[steps:]),
            bits(np.broadcast_to(states[steps - 1],
                                 states[steps:].shape)))
        for node in alone.voltages:
            np.testing.assert_array_equal(
                bits(batched.voltages[node][:steps, column]),
                bits(alone.voltages[node][:, 0]), err_msg=node)
        np.testing.assert_array_equal(bits(batched.final[column]),
                                      bits(alone.final[0]))
        if alone.decided is not None:
            assert batched.decided[column] == alone.decided[0]


def assert_lanes_match_solo(backend) -> None:
    """Every active sample of every ``LANE_CASES`` batch reproduces the
    bits of its own batch-1 run."""
    solo = {}
    for rows, active in LANE_CASES:
        runs = lane_reads(rows, active, backend)
        assert runs[1].decided.any()
        for column, row in enumerate(rows):
            if active is not None and row not in active:
                continue
            if row not in solo:
                solo[row] = lane_reads([row], None, backend)
            assert_sample_matches_solo(runs, column, solo[row])


class TestFusedTransient:
    """The fused loop equals the stepped cc loop bit for bit."""

    @pytest.mark.parametrize("batch", [1, 7, 400])
    @pytest.mark.parametrize("build", [build_nssa, build_issa])
    def test_sense_amps_bitwise(self, build, batch, cc_backend,
                                monkeypatch):
        fused, fused_counts = run_counted(sa_scenario, build, batch,
                                          cc_backend)
        stepped(monkeypatch)
        ref, ref_counts = run_counted(sa_scenario, build, batch,
                                      cc_backend)
        assert_sa_bitwise(fused, ref)
        assert fused_counts == ref_counts
        assert fused_counts["transient.warm_seeds"] > 0
        assert fused_counts["transient.samples_decided_early"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_randomised_topologies_bitwise(self, seed, cc_backend,
                                           monkeypatch):
        fused, fused_counts = run_counted(random_scenario, seed,
                                          cc_backend)
        stepped(monkeypatch)
        ref, ref_counts = run_counted(random_scenario, seed, cc_backend)
        assert len(fused) == len(ref)
        for a, b in zip(fused, ref):
            if isinstance(b, type):
                assert a is b
            else:
                assert_results_bitwise(a, b)
        assert fused_counts == ref_counts

    def test_runs_as_one_call(self, cc_backend):
        from repro.analysis.perf import PERF
        system, _ = sense_amp_system(batch=4)
        calls = []
        kernel = cc_backend.step_kernel(system, system.c_matrix / 1e-12,
                                        1e-12, 4, NewtonOptions())
        original = kernel._fn
        kernel._fn = lambda *args: calls.append(1) or original(*args)
        PERF.reset()
        result = run_transient(system, t_stop=2e-11, dt=1e-12,
                               probes=["s"], backend=cc_backend)
        assert not calls  # no per-step newton_step call from python
        counters = PERF.snapshot()["counters"]
        assert counters["spice.backend.fused_steps"] == \
            result.times.size - 1

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_invariant_to_partitions(self, parts, cc_backend, monkeypatch):
        monkeypatch.setattr(CcStepKernel, "partitions",
                            lambda self, active: 1)
        one, one_counts = run_counted(sa_scenario, build_nssa, 40,
                                      cc_backend)
        monkeypatch.setattr(CcStepKernel, "partitions",
                            lambda self, active: parts)
        many, many_counts = run_counted(sa_scenario, build_nssa, 40,
                                        cc_backend)
        assert_sa_bitwise(one, many)
        assert one_counts == many_counts
        assert_lanes_match_solo(cc_backend)

    def test_partitions_without_active_samples(self, cc_backend,
                                               monkeypatch):
        system, rng = sense_amp_system(batch=7, seed=5)
        mask = np.zeros(7, dtype=bool)
        mask[[2, 6]] = True
        results = []
        for parts in (1, 4):  # four partitions, two active samples
            monkeypatch.setattr(CcStepKernel, "partitions",
                                lambda self, active, n=parts: n)
            results.append(run_transient(
                system, t_stop=3e-11, dt=1e-12, probes=["s", "sbar"],
                sample_mask=mask, extrapolate=True, record_states=True,
                backend=cc_backend))
        assert_results_bitwise(*results)
        frozen = results[1].states[:, ~mask]
        np.testing.assert_array_equal(bits(frozen),
                                      bits(np.broadcast_to(
                                          frozen[0], frozen.shape)))
        nothing = run_transient(system, t_stop=3e-11, dt=1e-12,
                                probes=["s"], sample_mask=np.zeros(7, bool),
                                record_states=True, backend=cc_backend)
        assert nothing.times.size == 1 and nothing.states.shape[0] == 1

    def test_invariant_to_batch_packing(self, cc_backend):
        design = build_nssa()
        rng = np.random.default_rng(4)
        names = MnaSystem(design.circuit, 298.15).vth_shifts()
        shifts = {name: rng.normal(0.0, 0.03, 6) for name in names}
        runs = {}
        for rows in (slice(0, 6), slice(3, 4)):
            batch = rows.stop - rows.start
            system = MnaSystem(design.circuit, 298.15, batch_size=batch)
            system.set_vth_shifts({k: v[rows] for k, v in shifts.items()})
            runs[batch] = run_transient(
                system, t_stop=4e-11, dt=1e-12, probes=["s"],
                extrapolate=True, backend=cc_backend)
        np.testing.assert_array_equal(bits(runs[6].probe("s")[:, 3]),
                                      bits(runs[1].probe("s")[:, 0]))
        assert_lanes_match_solo(cc_backend)

    def test_errors_match_the_stepped_loop(self, cc_backend, monkeypatch):
        system, _ = sense_amp_system(batch=6)
        options = NewtonOptions(max_iter=1)
        errors = []
        for route in ("fused", "stepped"):
            if route == "stepped":
                stepped(monkeypatch)
            with pytest.raises(compiled_mod.ConvergenceError) as info:
                run_transient(system, t_stop=2e-11, dt=1e-12,
                              probes=["s"], options=options,
                              backend=cc_backend)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_selfcheck_failure_routes_to_numpy(self, monkeypatch,
                                               clean_flavor):
        if not _cc.compiler_available():
            pytest.skip("no C compiler on PATH")
        from repro.analysis.perf import PERF
        monkeypatch.setattr(compiled_mod._SelfCheckKernel, "ATOL", -1.0)
        backend = CompiledBackend()
        system, _ = sense_amp_system(batch=3)
        PERF.reset()
        demoted = run_transient(system, t_stop=1e-11, dt=1e-12,
                                probes=["s"], backend=backend)
        assert compiled_mod._SELFCHECK == "failed"
        assert PERF.snapshot()["counters"][
            "spice.backend.selfcheck_failures"] == 1
        # Every step, the checked one included, answered by the reference.
        twin, _ = sense_amp_system(batch=3)
        assert_results_bitwise(demoted, run_transient(
            twin, t_stop=1e-11, dt=1e-12, probes=["s"], backend="numpy"))
        for system, batch in ((system, 3),
                              (sense_amp_system(batch=4)[0], 4)):
            kernel = backend.step_kernel(system, system.c_matrix / 1e-12,
                                         1e-12, batch, NewtonOptions())
            assert isinstance(kernel, NumpyStepKernel)
            assert kernel.fused_transient() is None


class TestCpuSlots:
    def test_partitions_follow_the_slot_rule(self, cc_backend,
                                             monkeypatch):
        system, _ = sense_amp_system(batch=4)
        kernel = cc_backend.step_kernel(system, system.c_matrix / 1e-12,
                                        1e-12, 4, NewtonOptions())
        per = compiled_mod.MIN_SAMPLES_PER_THREAD
        monkeypatch.setattr(compiled_mod, "cpu_slots", lambda: 3)
        assert kernel.partitions(1) == 1
        assert kernel.partitions(per) == 1
        assert kernel.partitions(per + 1) == 2
        assert kernel.partitions(100 * per) == 3

    def test_default_is_the_usable_cpu_count(self):
        from repro.core.parallel import default_workers
        assert compiled_mod.cpu_slots() == default_workers()

    def test_thread_share_stays_in_its_thread(self):
        seen = []

        def consumer():
            compiled_mod.set_thread_cpu_slots(1)
            seen.append(compiled_mod.cpu_slots())

        worker = threading.Thread(target=consumer)
        worker.start()
        worker.join()
        assert seen == [1]
        from repro.core.parallel import default_workers
        assert compiled_mod.cpu_slots() == default_workers()

    def test_pool_worker_reports_worker_share(self):
        from repro.core.parallel import run_tasks, worker_share
        slots = run_tasks(compiled_mod.cpu_slots, [(), ()], workers=2)
        assert slots == [worker_share(2)] * 2

    def test_service_consumers_share_the_cpus(self, tmp_path):
        from repro.core.parallel import worker_share
        from repro.service import Service

        def runner(batch, timeout, cancel):
            return [{"slots": compiled_mod.cpu_slots()} for _ in batch]

        with Service(tmp_path, runner=runner, workers=2,
                     autostart=False) as service:
            workers = [service.pool._spawn_locked() for _ in range(2)]
            assert {w.cpu_slots for w in workers} == {worker_share(2)}
            for worker in workers:
                worker.stop(timeout=5.0)


@pytest.fixture(scope="module")
def scalar_lib(tmp_path_factory):
    """The kernel built with the scalar-libm flag set, in its own cache."""
    if not _cc.compiler_available():
        pytest.skip("no C compiler on PATH")
    lib, _, _ = _cc._compile(_cc.CC_FLAG_SETS[-1],
                             str(tmp_path_factory.mktemp("cc-scalar")))
    assert lib is not None
    return lib


#: The 4-lane (AVX2) flag set, built on any AVX2 host.
AVX2_FLAGS = "-O3 -mavx2 -mfma -fno-math-errno -pthread -lmvec"


def cpu_has(*features) -> bool:
    """True when the host CPU reports every feature flag."""
    flags = _cc._cpu_identity().partition("flags=")[2].split("|")[0]
    return set(features) <= set(flags.split())


@pytest.fixture(scope="module")
def avx2_lib(tmp_path_factory):
    """The kernel built with 4 lanes (AVX2 + FMA), in its own cache."""
    if not _cc.compiler_available():
        pytest.skip("no C compiler on PATH")
    if not cpu_has("avx2", "fma"):
        pytest.skip("the CPU lacks AVX2/FMA")
    lib, _, _ = _cc._compile(AVX2_FLAGS,
                             str(tmp_path_factory.mktemp("cc-avx2")))
    assert lib is not None
    assert _cc.libm_path(lib) == "mvec-avx2"
    return lib


def run_cell_on(lib, flags, kind, monkeypatch):
    """A 16-sample aged cell through the cc kernel ``lib``."""
    monkeypatch.setattr(_cc, "load_kernel",
                        lambda lib=lib: (lib, 0.0, flags))
    _reset_flavor_cache()
    backend = CompiledBackend()
    assert backend.describe()["cc"]["libm"] == _cc.libm_path(lib)
    result = run_cell(aged_cell(kind),
                      settings=default_mc_settings(size=16, seed=2017),
                      timing=ReadTiming(dt=1e-12), backend=backend)
    assert compiled_mod._SELFCHECK == "ok"
    return result


def assert_cells_agree(a, b) -> None:
    """Bitwise offsets and spec; delays within 1 fs."""
    np.testing.assert_array_equal(bits(a.offset.offsets),
                                  bits(b.offset.offsets))
    assert a.offset.spec == b.offset.spec
    assert abs(a.delay_s - b.delay_s) <= 1e-15


class TestLibmPaths:
    """Vector (libmvec) and scalar libm builds give the same results,
    and a vector build that cannot load falls back to the scalar one."""

    @pytest.mark.parametrize("kind", ["nssa", "issa"])
    def test_four_lane_build_matches_the_vector_build(self, kind, avx2_lib,
                                                      monkeypatch,
                                                      clean_flavor):
        vector_lib, _, flags = _cc.load_kernel()
        assert_cells_agree(
            run_cell_on(vector_lib, flags, kind, monkeypatch),
            run_cell_on(avx2_lib, AVX2_FLAGS, kind, monkeypatch))

    @pytest.mark.parametrize("kind", ["nssa", "issa"])
    def test_scalar_build_matches_the_vector_build(self, kind, scalar_lib,
                                                   monkeypatch,
                                                   clean_flavor):
        vector_lib, _, flags = _cc.load_kernel()
        assert _cc.libm_path(scalar_lib) == "scalar"
        assert_cells_agree(
            run_cell_on(vector_lib, flags, kind, monkeypatch),
            run_cell_on(scalar_lib, _cc.CC_FLAG_SETS[-1], kind, monkeypatch))

    @needs_cc
    def test_unloadable_vector_symbols_demote_to_scalar(self, monkeypatch,
                                                        tmp_path,
                                                        clean_flavor):
        vector_lib, _, _ = _cc.load_kernel()
        if _cc.libm_path(vector_lib) == "scalar":
            pytest.skip("no vector libm on this host")
        # Renamed vector symbols link (a shared object may leave symbols
        # undefined) but fail dlopen, as on a glibc without vector log1p.
        missing = " ".join(f"-D{sym}={sym}_missing"
                           for sym in ("_ZGVeN8v_log1p", "_ZGVdN4v_log1p"))
        flag_sets = (f"{_cc.CC_FLAG_SETS[0]} {missing}",
                     _cc.CC_FLAG_SETS[1])
        monkeypatch.setattr(_cc, "CC_FLAG_SETS", flag_sets)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert _cc._compile(flag_sets[0], str(tmp_path))[0] is None
        lib, _, flags = _cc.load_kernel()
        assert flags == flag_sets[1]
        assert _cc.libm_path(lib) == "scalar"
        info = CompiledBackend().describe()
        assert info["flavor"] == "cc"
        assert info["cc"]["libm"] == "scalar"


# -- the lane-blocked LU -------------------------------------------------------

@pytest.fixture(scope="module", params=["native", "avx2", "scalar"])
def lane_lib(request):
    """The cc kernel at each lane width this host builds."""
    if request.param == "native":
        if not _cc.compiler_available():
            pytest.skip("no C compiler on PATH")
        return _cc.load_kernel()[0]
    return request.getfixturevalue(f"{request.param}_lib")


def lane_system(rng, nu, kind):
    """One ``nu``-unknown system ``(a, b)`` of ``kind``.  Plain systems
    are column diagonally dominant, so partial pivoting never swaps
    them; ``pivot`` rolls their rows (a swap at the first stage),
    ``singular`` zeroes a column (a zero pivot, so the reg bump) and
    ``nan`` plants a NaN."""
    a = rng.uniform(-0.5, 0.5, (nu, nu)) + nu * np.eye(nu)
    b = rng.uniform(-1.0, 1.0, nu)
    if kind == "pivot":
        a = np.roll(a, 1, axis=0)
    elif kind == "singular":
        a[:, rng.integers(nu)] = 0.0
    elif kind == "nan":
        a[rng.integers(nu), rng.integers(nu)] = np.nan
    return a, b


def lane_solve(lib, systems, reg, pad=3):
    """Solve ``systems`` in one ``lu_solve_lanes`` call, batch-last with
    ``pad`` NaN columns past the batch; returns ``(x, status, counts)``
    with ``x`` of shape ``(len(systems), nu)``."""
    nb, nu = len(systems), systems[0][0].shape[0]
    nb0 = nb + pad
    jac = np.full((nu * nu, nb0), np.nan)
    rhs = np.full((nu, nb0), np.nan)
    for i, (a, b) in enumerate(systems):
        jac[:, i] = a.ravel()
        rhs[:, i] = b
    x = np.full((nu, nb0), np.nan)
    counts = np.zeros(2, dtype=np.int64)
    status = lib.lu_solve_lanes(jac, rhs, x, nb, nb0, nu, reg, counts)
    return x[:, :nb].T.copy(), status, counts


class TestLaneSolve:
    """The block LU solve: per-sample bits independent of the lane and
    of the neighbours, numpy's answer within 1e-12 relative."""

    REG = 1.0

    @settings(max_examples=40, deadline=None)
    @given(nu=st.integers(1, 8),
           kinds=st.lists(st.sampled_from(
               ["plain", "plain", "pivot", "singular", "nan"]),
               min_size=1, max_size=19),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lanes_are_independent_and_exact(self, lane_lib, nu, kinds,
                                             seed):
        rng = np.random.default_rng(seed)
        systems = [lane_system(rng, nu, kind) for kind in kinds]
        x, status, counts = lane_solve(lane_lib, systems, self.REG)
        assert status == 0
        # Each sample at a new lane, between new neighbours, and alone.
        rolled, _, _ = lane_solve(lane_lib, systems[1:] + systems[:1],
                                  self.REG)
        np.testing.assert_array_equal(bits(np.roll(rolled, 1, axis=0)),
                                      bits(x))
        for i, system in enumerate(systems):
            alone, _, _ = lane_solve(lane_lib, [system], self.REG)
            np.testing.assert_array_equal(bits(alone[0]), bits(x[i]))
        for (a, b), kind, xi in zip(systems, kinds, x):
            if kind == "nan":
                continue
            if kind == "singular":
                a = a + self.REG * np.eye(nu)
            reference = np.linalg.solve(a, b)
            assert np.max(np.abs(xi - reference)) <= \
                1e-12 * np.max(np.abs(reference))
        # The slow-path counter: bumped lanes, and lanes that swapped.
        bumped = kinds.count("singular")
        slow = bumped + (kinds.count("pivot") if nu > 1 else 0)
        assert counts[0] == bumped
        assert slow <= counts[1] <= slow + kinds.count("nan")

    def test_singular_even_bumped_stops_the_batch(self, lane_lib):
        rng = np.random.default_rng(5)
        good = [lane_system(rng, 2, "plain") for _ in range(3)]
        # Factors (one zero pivot), then meets a zero column bumped.
        bad = (np.array([[-self.REG, 0.0], [0.0, 0.0]]), np.ones(2))
        x, status, counts = lane_solve(lane_lib, good[:2] + [bad, good[2]],
                                       self.REG)
        assert status == -2
        for i in (0, 1):
            np.testing.assert_allclose(x[i], np.linalg.solve(*good[i]),
                                       rtol=1e-12)
        assert np.isnan(x[2:]).all()
        assert counts[0] == 1


def pivot_circuit():
    """A gate node whose own conductance at a 100 ps step is below the
    transconductance it drives: partial pivoting swaps rows."""
    from repro.models import NMOS_45HP
    from repro.spice.netlist import Circuit
    from repro.spice.waveforms import Dc, Step
    c = Circuit("pivot")
    c.add_vsource("vdd", "vdd", Dc(1.0))
    c.add_vsource("vin", "in", Step(0.0, 1.0, t_step=2e-10, t_rise=2e-10))
    c.add_resistor("rg", "in", "g", 1e6)
    c.add_mosfet("m0", "d", "g", "0", "0", NMOS_45HP, w_over_l=6.0)
    c.add_resistor("rd", "vdd", "d", 1e6)
    c.add_capacitor("cd", "d", "0", 1e-16)
    return c


def pivot_run(shifts, backend):
    """A transient of ``pivot_circuit`` with one Vth shift per sample."""
    system = MnaSystem(pivot_circuit(), 300.0, batch_size=shifts.size)
    system.set_vth_shifts({"m0": shifts})
    return run_transient(system, t_stop=2e-9, dt=1e-10, probes=["d", "g"],
                         backend=backend)


class TestPivotingTransient:
    """Samples whose Newton blocks need a row swap share lanes with
    samples whose blocks do not."""

    SHIFTS = np.linspace(-0.3, 0.3, 11)

    def test_fused_equals_stepped_and_counts_slow_lanes(self, cc_backend,
                                                        monkeypatch):
        fused, fused_counts = run_counted(pivot_run, self.SHIFTS,
                                          cc_backend)
        stepped(monkeypatch)
        again, stepped_counts = run_counted(pivot_run, self.SHIFTS,
                                            cc_backend)
        assert 0 < fused_counts["spice.backend.slow_lanes"] < \
            fused_counts["newton.sample_iterations"]
        assert fused_counts == stepped_counts
        assert_results_bitwise(fused, again)
        reference = pivot_run(self.SHIFTS, "numpy")
        for node in ("d", "g"):
            np.testing.assert_allclose(fused.voltages[node],
                                       reference.voltages[node], rtol=0.0,
                                       atol=STEP_ATOL)

    def test_samples_match_their_solo_runs(self, cc_backend):
        batched = pivot_run(self.SHIFTS, cc_backend)
        for i in (0, 5, 9, 10):
            alone = pivot_run(self.SHIFTS[i:i + 1], cc_backend)
            for node in ("d", "g"):
                np.testing.assert_array_equal(
                    bits(batched.voltages[node][:, i]),
                    bits(alone.voltages[node][:, 0]), err_msg=node)


class TestKernelCacheTag:
    """The .so cache key covers the compiler binary and the host CPU."""

    def test_compiler_identity_splits_paths(self, monkeypatch, tmp_path):
        flags = _cc.CC_FLAG_SETS[0]
        paths = set()
        for identity in ("/usr/bin/gcc-12:100:1", "/usr/bin/gcc-13:200:2"):
            monkeypatch.setattr(_cc, "_compiler_identity",
                                lambda value=identity: value)
            paths.add(_cc.so_path(flags, str(tmp_path)))
        assert len(paths) == 2

    def test_cpu_identity_splits_paths(self, monkeypatch, tmp_path):
        flags = _cc.CC_FLAG_SETS[0]
        paths = set()
        for cpu in ("x86_64|flags=sse2", "x86_64|flags=sse2 avx512f"):
            monkeypatch.setattr(_cc, "_cpu_identity", lambda value=cpu: value)
            paths.add(_cc.so_path(flags, str(tmp_path)))
        assert len(paths) == 2

    @needs_cc
    def test_cached_load_spawns_no_process(self, monkeypatch):
        lib, _, flags = _cc.load_kernel()
        assert lib is not None

        def spawn(*args, **kwargs):
            raise AssertionError("a cached load must not start a process")

        monkeypatch.setattr(_cc.subprocess, "run", spawn)
        monkeypatch.setattr(_cc.subprocess, "Popen", spawn)
        again, compile_ms, flags_again = _cc.load_kernel()
        assert again is not None
        assert compile_ms == 0.0 and flags_again == flags

    def test_flag_sets_link_pthreads(self):
        assert all("-pthread" in flags.split()
                   for flags in _cc.CC_FLAG_SETS)

    def test_link_libraries_follow_the_source(self, monkeypatch,
                                              tmp_path):
        # A linker run with --as-needed drops a library named before
        # the object that needs it.
        commands = []

        def run(cmd, **kwargs):
            commands.append(cmd)
            raise OSError("not compiling")

        monkeypatch.setattr(_cc.subprocess, "run", run)
        flags = _cc.CC_FLAG_SETS[0]
        assert "-lmvec" in flags.split()
        assert _cc._compile(flags, str(tmp_path)) == (None, 0.0, False)
        (cmd,) = commands
        source = next(i for i, word in enumerate(cmd)
                      if word.endswith(".c"))
        assert cmd.index("-lmvec") > source
