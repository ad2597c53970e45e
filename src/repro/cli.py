"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>``:

* ``characterize`` — one table cell (scheme, workload, time, corner);
* ``table`` — a full paper table (II, III or IV) with paper columns;
* ``fig7`` — the delay-versus-aging sweep at 125 C;
* ``sensitivity`` — per-device offset/delay sensitivities;
* ``balance`` — stream a workload through the ISSA controller;
* ``overheads`` — the Section IV-C area/energy numbers;
* ``guardband`` — worst-case margin comparison over the full
  condition set;
* ``tail`` — rare-event offset-spec estimation (importance sampling /
  scaled-sigma) with confidence intervals, next to the paper's
  normal-fit extrapolation;
* ``report`` — assemble REPORT.md from the benchmark artefacts;
* ``perf`` — profile one table cell and dump the fast-path counters
  (optionally as JSON);
* ``cache`` — inspect or clear the persistent result cache;
* ``serve`` — run the asynchronous characterisation job service
  (request batching, dedup, sharded persistent job store, worker
  leases, ``--workers N --autoscale``) behind a JSON/HTTP frontend —
  see :mod:`repro.service`;
* ``worker`` — attach a remote worker (``--attach URL``) that claims,
  executes and acks jobs from a running ``serve`` instance;
* ``array`` — bank-level array characterisation over a geometry grid
  (rows x columns x words-per-row x mux): per-column read paths with
  geometry-derived bitline loading, ISSA-vs-NSSA lifetime and
  read-latency tables — see :mod:`repro.array`;
* ``workloads`` — list the paper's workloads.

``characterize``, ``table`` and ``perf`` accept ``--cache`` to load
already-solved cells from (and store new cells into) the persistent
content-addressed store under ``$REPRO_CACHE_DIR`` / ``~/.cache/repro``
(see :mod:`repro.core.cache`); ``--no-cache`` is the default.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .analysis.figures import render_delay_series
from .analysis.tables import comparison_row, render_comparison
from .circuits.sense_amp import ReadTiming, build_issa, build_nssa
from .core.calibration import default_mc_settings
from .core.delay import delay_vs_aging
from .core.experiment import ExperimentCell, run_cell
from .core.mitigation import stream_balance
from .core.sensitivity import measure_sensitivities
from .memory.energy import (MemoryOrganisation, issa_area_overhead,
                            issa_energy_overhead_per_read)
from .models.temperature import Environment
from .workloads import PAPER_WORKLOADS, paper_workload


def _add_corner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--temp", type=float, default=25.0,
                        help="temperature in Celsius (default 25)")
    parser.add_argument("--vdd", type=float, default=1.0,
                        help="supply voltage in volts (default 1.0)")


def _time_step(text: str) -> float:
    """A ``--dt`` value, refused unless :class:`ReadTiming` takes it."""
    try:
        return ReadTiming(dt=float(text)).dt
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextlib.contextmanager
def _usage_errors(args):
    """Report a ``ValueError`` raised while building a run's spec and
    engine as a usage error of its subcommand: exit 2 with the rule."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _add_mc_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mc", type=int, default=100,
                        help="Monte-Carlo samples (paper: 400)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--dt", type=_time_step, default=1e-12,
                        help="transient step in seconds")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="split the MC batch into chunks of at most "
                             "this many samples (memory control; results "
                             "unchanged)")
    from .spice.backends import available_backends
    parser.add_argument("--backend", choices=available_backends(),
                        default=None,
                        help="solver backend for the reduced transient "
                             "hot loop (default: $REPRO_BACKEND or "
                             "'compiled'; 'numpy' is the reference)")


def _add_estimator_args(parser: argparse.ArgumentParser,
                        default: str = "fit") -> None:
    parser.add_argument("--estimator",
                        choices=("fit", "scaled-sigma", "is"),
                        default=default,
                        help="offset-spec tail estimator: the paper's "
                             "normal fit (default) or a variance-reduced "
                             "rare-event estimator (see "
                             "repro.core.rare_event)")
    parser.add_argument("--tail-samples", type=int, default=2000,
                        help="simulated samples per estimator run (per "
                             "sigma scale for scaled-sigma)")
    parser.add_argument("--tail-bootstrap", type=int, default=400,
                        help="bootstrap replicates behind the confidence "
                             "intervals")


def _estimator(args):
    """The :class:`EstimatorConfig` requested by ``--estimator``, or None."""
    kind = getattr(args, "estimator", "fit")
    if kind == "fit":
        return None
    from .core.rare_event import EstimatorConfig
    return EstimatorConfig(kind=kind, samples=args.tail_samples,
                           bootstrap=args.tail_bootstrap)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="load/store cell results in the persistent "
                             "content-addressed cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default $REPRO_CACHE_DIR "
                             "or ~/.cache/repro)")


def _cache(args):
    """The :class:`ResultCache` requested by ``--cache``, or None."""
    if not getattr(args, "cache", False):
        return None
    import pathlib
    from .core.cache import ResultCache
    if args.cache_dir:
        return ResultCache(pathlib.Path(args.cache_dir))
    return ResultCache.default()


def _settings(args):
    return default_mc_settings(size=args.mc, seed=args.seed)


def _cell_result(args, scheme: str, workload_name: Optional[str],
                 time_s: float, env: Environment):
    workload = paper_workload(workload_name) if workload_name else None
    return run_cell(ExperimentCell(scheme, workload, time_s, env),
                    settings=_settings(args),
                    timing=ReadTiming(dt=args.dt),
                    chunk_size=args.chunk_size,
                    cache=_cache(args),
                    estimator=_estimator(args),
                    backend=getattr(args, "backend", None))


def cmd_characterize(args) -> int:
    env = Environment.from_celsius(args.temp, args.vdd)
    result = _cell_result(args, args.scheme, args.workload, args.time,
                          env)
    print(f"corner: {env.label()}  MC={args.mc}")
    for key, value in result.row().items():
        print(f"  {key:10s} {value}")
    return 0


def cmd_table(args) -> int:
    from .core.paper import run_grid

    def progress(index, total, cell):
        print(f"  [{index + 1}/{total}] {cell.scheme} "
              f"{cell.workload_label} {cell.env.label()}",
              file=sys.stderr)

    rows = run_grid(args.which, settings=_settings(args),
                    timing=ReadTiming(dt=args.dt),
                    workers=args.workers or None,
                    chunk_size=args.chunk_size, cache=_cache(args),
                    estimator=_estimator(args),
                    backend=getattr(args, "backend", None),
                    progress=progress)
    rendered = [comparison_row(
        row.result.cell.scheme, row.result.cell.time_s,
        row.result.cell.workload_label, row.result.cell.env.label(),
        row.measured, row.paper) for row in rows]
    print(render_comparison(rendered))
    return 0


def cmd_fig7(args) -> int:
    env = Environment.from_celsius(125.0)
    times = (0.0, 1e2, 1e4, 1e6, 1e7, 1e8)
    kwargs = dict(times_s=times, settings=_settings(args),
                  timing=ReadTiming(dt=args.dt))
    series = [
        delay_vs_aging("nssa", paper_workload("80r0"), env, **kwargs),
        delay_vs_aging("nssa", paper_workload("80r0r1"), env, **kwargs),
        delay_vs_aging("issa", paper_workload("80r0"), env, **kwargs),
    ]
    print(render_delay_series(series))
    return 0


def cmd_sensitivity(args) -> int:
    design = build_issa() if args.scheme == "issa" else build_nssa()
    env = Environment.from_celsius(args.temp, args.vdd)
    report = measure_sensitivities(design, env,
                                   timing=ReadTiming(dt=args.dt))
    print(f"{args.scheme.upper()} at {env.label()} "
          f"(perturbation {report.perturbation * 1e3:.0f} mV):")
    print(f"{'device':14s} {'d(offset)/dVth':>15s} "
          f"{'d(delay)/dVth [ps/V]':>21s}")
    for name in sorted(report.offset_per_volt,
                       key=lambda n: -abs(report.offset_per_volt[n])):
        print(f"{name:14s} {report.offset_per_volt[name]:>+15.3f} "
              f"{report.delay_per_volt[name] * 1e12:>21.2f}")
    return 0


def cmd_balance(args) -> int:
    report = stream_balance(paper_workload(args.workload),
                            reads=args.reads, counter_bits=args.bits)
    print(f"workload {args.workload}, {args.reads} reads, "
          f"{args.bits}-bit counter (swap every "
          f"{report.switch_period_reads} reads):")
    print(f"  external imbalance: {report.external_imbalance:+.4f}")
    print(f"  internal imbalance: {report.internal_imbalance:+.4f}")
    print(f"  imbalance removed:  "
          f"{report.imbalance_reduction * 100.0:.1f}%")
    return 0


def cmd_overheads(args) -> int:
    org = MemoryOrganisation(counter_bits=args.bits,
                             columns_per_control=args.columns)
    print(f"{args.columns} columns sharing one {args.bits}-bit counter:")
    print(f"  area overhead:   {issa_area_overhead(org) * 100:.3f}%")
    print(f"  energy overhead: "
          f"{issa_energy_overhead_per_read(org) * 100:.3f}% per read")
    return 0


def cmd_guardband(args) -> int:
    from .core.guardband import guardband_report
    report = guardband_report(lifetime_s=args.lifetime)
    print(report.summary())
    return 0


def cmd_report(args) -> int:
    import pathlib
    from .analysis.report import write_report
    path, status = write_report(pathlib.Path(args.results),
                                pathlib.Path(args.output)
                                if args.output else None)
    print(f"report written to {path}")
    if status.missing:
        print("missing artefacts (benchmarks not run):")
        for name in status.missing:
            print(f"  - {name}")
    return 0 if status.complete else 1


def cmd_tail(args) -> int:
    """Estimate the rare-event offset tail of one cell, with CIs."""
    import dataclasses

    from .analysis.failure import offset_spec, sigma_level

    env = Environment.from_celsius(args.temp, args.vdd)
    result = _cell_result(args, args.scheme, args.workload, args.time,
                          env)
    offset = result.offset
    fr = args.failure_rate
    fit_ci = None
    try:
        fit_spec = offset_spec(offset.mu, offset.sigma, fr)
        # The fit-path interval, even when a tail estimate is attached.
        fit_ci = dataclasses.replace(offset, tail=None).spec_ci(
            failure_rate=fr, bootstrap=args.tail_bootstrap)
    except ValueError:
        fit_spec = float("nan")

    print(f"corner: {env.label()}  MC={args.mc}  "
          f"target failure rate {fr:g} (~{sigma_level(fr):.1f} sigma)")
    print(f"  normal fit      mu={offset.mu * 1e3:+.2f} mV  "
          f"sigma={offset.sigma * 1e3:.2f} mV")
    line = f"  fit spec        {fit_spec * 1e3:8.2f} mV"
    if fit_ci is not None:
        line += (f"   95% CI [{fit_ci.lo * 1e3:.2f}, "
                 f"{fit_ci.hi * 1e3:.2f}]")
    print(line)
    tail = offset.tail
    payload = {
        "scheme": args.scheme, "workload": args.workload,
        "time_s": args.time, "failure_rate": fr,
        "estimator": args.estimator,
        "fit": {"mu": offset.mu, "sigma": offset.sigma,
                "spec": fit_spec,
                "spec_ci": ([fit_ci.lo, fit_ci.hi]
                            if fit_ci is not None else None)},
    }
    if tail is None:
        print("  (no tail estimate: estimator is 'fit')")
    else:
        spec = tail.spec_at(fr)
        print(f"  {args.estimator:15s} {spec.value * 1e3:8.2f} mV"
              f"   {spec.level * 100:.0f}% CI [{spec.lo * 1e3:.2f}, "
              f"{spec.hi * 1e3:.2f}]")
        rate = (tail.failure_rate_at(fit_spec)
                if fit_spec == fit_spec and fit_spec > 0 else None)
        if rate is not None:
            print(f"  fr @ fit spec   {rate.value:12.3e}"
                  f"   {rate.level * 100:.0f}% CI [{rate.lo:.3e}, "
                  f"{rate.hi:.3e}]")
        print(f"  diagnostics     n={tail.n_simulated}  "
              f"ESS={tail.ess:.1f}  clips={tail.clip_events}  "
              f"out-of-range={tail.out_of_range}")
        payload["tail"] = dict(tail.meta())
        payload["tail"]["spec"] = [spec.value, spec.lo, spec.hi]
        if rate is not None:
            payload["tail"]["fr_at_fit_spec"] = [rate.value, rate.lo,
                                                 rate.hi]
    if args.json:
        import json
        import pathlib
        path = pathlib.Path(args.json)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\ntail JSON written to {path}")
    return 0


def _perf_array(args) -> int:
    """Profile a bank characterisation; ``array.*`` counters land in
    the report and the ``--json`` artefact."""
    from .analysis.perf import PERF
    from .array import ArrayEngine, ArraySpec

    try:
        rows, columns = (int(part) for part
                         in args.array.lower().split("x"))
    except ValueError:
        raise SystemExit(f"bad --array geometry: {args.array!r} "
                         "(expected ROWSxCOLS, e.g. 64x4)")
    spec = ArraySpec(rows=rows, columns=columns,
                     workload=args.workload or None,
                     times_s=((0.0, args.time) if args.time > 0.0
                              else (0.0,)),
                     temp_c=args.temp, vdd=args.vdd,
                     mc=args.mc, seed=args.seed)
    PERF.reset()
    with PERF.timer("total"):
        report = ArrayEngine(spec, workers=1,
                             backend=getattr(args, "backend", None)
                             ).compare()
    print(f"array: {rows}x{columns} bank  MC={args.mc}/column  "
          f"workload {spec.workload or 'fresh'}")
    print()
    print(PERF.report())
    print()
    print("derived:")
    print(f"  columns/sec                  "
          f"{PERF.gauges.get('array.columns_per_sec', 0.0):8.2f}")
    print(f"  columns characterised        "
          f"{PERF.counters.get('array.columns', 0):8d}")
    if args.json:
        path = PERF.write_json(args.json, extra={
            "config": {"array": args.array, "workload": args.workload,
                       "time_s": args.time, "temp_c": args.temp,
                       "vdd": args.vdd, "mc": args.mc,
                       "backend": getattr(args, "backend", None)},
            "result": report["comparison"],
        })
        print(f"\nperf JSON written to {path}")
    return 0


def cmd_perf(args) -> int:
    """Characterise one cell under the perf recorder and report."""
    from .analysis.perf import PERF

    if getattr(args, "array", None):
        return _perf_array(args)
    env = Environment.from_celsius(args.temp, args.vdd)
    PERF.reset()
    with PERF.timer("total"):
        result = _cell_result(args, args.scheme, args.workload, args.time,
                              env)
    print(f"corner: {env.label()}  MC={args.mc}  dt={args.dt:g}")
    for key, value in result.row().items():
        print(f"  {key:10s} {value}")
    print()
    print(PERF.report())
    print()
    print("derived:")
    print(f"  newton iterations/solve      "
          f"{PERF.ratio('newton.iterations', 'newton.solves'):8.2f}")
    print(f"  sample-step occupancy        "
          f"{PERF.ratio('transient.sample_steps', 'transient.steps'):8.2f}")
    print(f"  samples decided early/run    "
          f"{PERF.ratio('transient.samples_decided_early', 'transient.runs'):8.2f}")
    print(f"  reduced evals/newton iter    "
          f"{PERF.ratio('mna.reduced_evals', 'newton.iterations'):8.2f}")
    print(f"  known tables/transient run   "
          f"{PERF.ratio('transient.known_table_builds', 'transient.runs'):8.2f}")
    print(f"  fused endpoint runs          "
          f"{PERF.counters.get('offset.endpoint_fused_runs', 0):8d}")
    if PERF.counters.get("spice.backend.fused_steps"):
        from .spice.backends import resolve_backend
        info = resolve_backend(getattr(args, "backend", None)).describe()
        print(f"  backend                      "
              f"{info['backend']:>8s} ({info.get('flavor', '-')})")
        print(f"  fused iterations/step        "
              f"{PERF.ratio('spice.backend.fused_iterations', 'spice.backend.fused_steps'):8.2f}")
        print(f"  kernel compile time [ms]     "
              f"{PERF.gauges.get('spice.backend.kernel_compile_ms', 0.0):8.1f}")
        print(f"  jit kernel cache hits        "
              f"{PERF.counters.get('spice.backend.jit_cache_hits', 0):8d}")
    if PERF.counters.get("rare_event.estimates"):
        draws = (PERF.counters.get("rare_event.proposal_draws", 0)
                 + PERF.counters.get("rare_event.scaled_sigma_draws", 0))
        print(f"  rare-event sampler draws     {draws:8d}")
        print(f"  rare-event ESS               "
              f"{PERF.gauges.get('rare_event.ess', 0.0):8.1f}")
        print(f"  rare-event weight clips      "
              f"{PERF.counters.get('rare_event.weight_clips', 0):8d}")
    if args.cache:
        print(f"  cache hit rate               "
              f"{PERF.ratio('cache.hits', 'cache.requests'):8.2f}")
    if args.json:
        path = PERF.write_json(args.json, extra={
            "config": {"scheme": args.scheme, "workload": args.workload,
                       "time_s": args.time, "temp_c": args.temp,
                       "vdd": args.vdd, "mc": args.mc, "dt": args.dt,
                       "chunk_size": args.chunk_size,
                       "estimator": args.estimator,
                       "backend": getattr(args, "backend", None)},
            "result": result.row(),
        })
        print(f"\nperf JSON written to {path}")
    return 0


def cmd_cache(args) -> int:
    """Inspect or clear the persistent result cache."""
    import pathlib
    from .core.cache import ResultCache
    cache = (ResultCache(pathlib.Path(args.cache_dir)) if args.cache_dir
             else ResultCache.default())
    if args.action == "stats":
        stats = cache.stats()
        print(f"directory: {stats['directory']}")
        print(f"entries:   {stats['entries']}")
        print(f"bytes:     {stats['bytes']}")
    else:
        removed = cache.clear()
        print(f"removed {removed} cached cell(s) from {cache.directory}")
    return 0


def cmd_serve(args) -> int:
    """Run the asynchronous characterisation job service over HTTP."""
    import pathlib
    from .core.cache import ResultCache
    from .service import Service
    from .service.http_api import serve

    cache = (ResultCache(pathlib.Path(args.cache_dir))
             if args.cache_dir else None)
    service = Service(directory=args.service_dir, cache=cache,
                      pool_workers=args.pool_workers or None,
                      max_batch=args.max_batch,
                      max_attempts=args.max_attempts,
                      retry_base_s=args.retry_base,
                      snapshot_every=args.snapshot_every,
                      workers=args.workers,
                      max_workers=args.max_workers,
                      autoscale=args.autoscale,
                      high_water=args.high_water,
                      idle_retire_s=args.idle_retire,
                      n_shards=args.shards,
                      lease_s=args.lease or None)
    return serve(service, host=args.host, port=args.port)


def cmd_worker(args) -> int:
    """Attach a remote worker to a running service over HTTP."""
    import pathlib
    import signal
    from .core.cache import ResultCache
    from .service.worker import RemoteWorker

    cache = (ResultCache(pathlib.Path(args.cache_dir))
             if args.cache_dir else None)
    worker = RemoteWorker(args.attach, worker_id=args.id, cache=cache,
                          pool_workers=args.pool_workers or None,
                          max_batch=args.max_batch, poll_s=args.poll,
                          lease_s=args.lease,
                          exit_when_idle=args.exit_when_idle)

    def _request_stop(signum, frame):
        worker.stop()
    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    print(f"worker {worker.worker_id} attaching to {args.attach}",
          flush=True)
    done = worker.run_forever()
    print(f"worker {worker.worker_id} exiting: {done} job(s) done, "
          f"{worker.batches_run} batch(es)", flush=True)
    return 0


def cmd_fleet(args) -> int:
    """Fleet-scale lifetime distributions and mitigation comparison."""
    import json as json_module

    from .fleet import FleetEngine, FleetSpec, MitigationPolicy

    with _usage_errors(args):
        spec_kwargs = dict(n_devices=args.devices, seed=args.seed,
                           block_size=args.block_size,
                           years=tuple(float(y) for y
                                       in args.years.split(",")),
                           phases_per_year=args.phases_per_year,
                           reads_per_phase=args.reads_per_phase,
                           swing_mv=args.swing_mv)
        if args.temp is not None:
            spec_kwargs["temps_c"] = ((args.temp, 1.0),)
        if args.vdd is not None:
            spec_kwargs["vdds"] = ((args.vdd, 1.0),)
        spec = FleetSpec(**spec_kwargs)
        policies = []
        for scheme in args.policies.split(","):
            scheme = scheme.strip()
            policies.append(MitigationPolicy(
                scheme=scheme,
                residual_imbalance=(args.residual_imbalance
                                    if scheme == "issa" else 0.0),
                rejuvenation_interval_years=args.rejuvenation_years,
                rejuvenation_phases=args.rejuvenation_phases,
                guardband_trim=args.guardband_trim))
        engine = FleetEngine(spec, workers=args.workers or None,
                             chunk_size=args.chunk_size)
    report = engine.compare(policies)
    print(f"fleet: {spec.n_devices} devices, "
          f"{spec.phases_per_year} phases/year, "
          f"swing {spec.swing_mv:g} mV")
    header = (f"  {'policy':24s} {'year':>6s} {'frac out':>10s} "
              f"{'chip ppm':>10s} {'std mV':>8s} {'p99 mV':>8s}")
    print(header)
    for summary in report["policies"]:
        name = summary["policy"]["name"]
        for year in summary["years"]:
            print(f"  {name:24s} {year['year']:6g} "
                  f"{year['fraction_out']:10.3e} "
                  f"{year['chip_loss_ppm']:10.1f} "
                  f"{year['offset_std_mv']:8.2f} "
                  f"{year['quantiles_mv']['p99']:8.2f}")
    for diff in report["comparison"]:
        last = diff["years"][-1]
        ratio = last["out_of_spec_ratio"]
        print(f"  {diff['policy']} vs {diff['baseline']} at year "
              f"{last['year']:g}: out-of-spec ratio "
              f"{'n/a' if ratio is None else format(ratio, '.3g')}, "
              f"{last['chip_loss_ppm_saved']:.1f} ppm chip loss saved")
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
        print(f"\nfleet report written to {args.json}")
    return 0


def _int_list(text: str, name: str) -> List[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part]
    except ValueError:
        raise ValueError(f"bad {name} list: {text!r}") from None
    if not values:
        raise ValueError(f"empty {name} list")
    return values


def _array_spec(args, rows: int, columns: int):
    from .array import ArraySpec
    return ArraySpec(
        rows=rows, columns=columns,
        words_per_row=args.words_per_row, mux_factor=args.mux,
        workload=args.workload or None,
        times_s=tuple(float(t) for t in args.times.split(",")),
        temp_c=args.temp, vdd=args.vdd, mc=args.mc, seed=args.seed,
        swing_mv=args.swing_mv, noise_margin_mv=args.noise_margin_mv)


def cmd_array(args) -> int:
    """Bank-level ISSA-vs-NSSA lifetime and read-latency tables."""
    import json as json_module

    from .array import ArrayEngine
    from .array.spec import validate_schemes

    with _usage_errors(args):
        schemes = validate_schemes(
            s.strip() for s in args.schemes.split(","))
        specs = [_array_spec(args, rows, columns)
                 for rows in _int_list(args.rows, "rows")
                 for columns in _int_list(args.columns, "columns")]
        engines = [ArrayEngine(spec, workers=args.workers or None,
                               chunk_size=args.chunk_size,
                               backend=args.backend)
                   for spec in specs]
    reports = [engine.compare(schemes) for engine in engines]

    for spec, report in zip(specs, reports):
        geometry = report["geometry"]
        bitline = report["bitline"]
        print(f"bank {geometry['rows']}x{geometry['columns']} "
              f"(words/row {geometry['words_per_row']}, "
              f"mux {geometry['mux_factor']})  bitline "
              f"{bitline['capacitance_ff']:.1f} fF / "
              f"{bitline['resistance_ohm']:.0f} ohm")
        header = f"  {'time [s]':>10s}"
        for scheme in schemes:
            header += (f" {scheme + ' spec mV':>14s}"
                       f" {scheme + ' read ps':>14s}")
        if len(schemes) > 1:
            header += f" {'gain %':>8s}"
        print(header)
        for entry in report["comparison"]:
            line = f"  {entry['time_s']:10.3g}"
            for scheme in schemes:
                line += (f" {entry[f'{scheme}_spec_mv']:14.2f}"
                         f" {entry[f'{scheme}_read_ps']:14.2f}")
            if len(schemes) > 1:
                gain = entry[f"{schemes[1]}_latency_gain_pct"]
                line += f" {gain:8.2f}"
            print(line)
        for scheme in schemes:
            life = report["lifetime"][scheme]
            last = life["last_in_spec_s"]
            first = life["first_out_of_spec_s"]
            verdict = ("never in spec" if last is None else
                       f"in spec through t={last:g} s" +
                       ("" if first is None
                        else f", out at t={first:g} s"))
            print(f"  lifetime {scheme}: {verdict} "
                  f"(provisioned swing {spec.swing_mv:g} mV)")
        print()
    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        with open(args.json, "w") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
        print(f"array report written to {args.json}")
    return 0


def cmd_workloads(args) -> int:
    for workload in PAPER_WORKLOADS:
        print(f"  {str(workload):8s} activation={workload.activation_rate}"
              f"  zero-fraction={workload.zero_fraction}"
              f"  -> ISSA internal: {workload.balanced()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE'17 ISSA sense-amplifier reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="run one table cell")
    p.add_argument("--scheme", choices=("nssa", "issa"), default="nssa")
    p.add_argument("--workload", default=None,
                   help="paper workload name (e.g. 80r0); omit for t=0")
    p.add_argument("--time", type=float, default=0.0,
                   help="stress time in seconds (paper: 1e8)")
    _add_corner_args(p)
    _add_mc_args(p)
    _add_estimator_args(p)
    _add_cache_args(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("--which", choices=("2", "3", "4"), required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the grid (default 1: serial, "
                        "bit-identical; 0 means one per CPU)")
    _add_mc_args(p)
    _add_estimator_args(p)
    _add_cache_args(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("fig7", help="delay vs aging at 125C")
    _add_mc_args(p)
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("sensitivity",
                       help="per-device offset/delay sensitivities")
    p.add_argument("--scheme", choices=("nssa", "issa"), default="nssa")
    _add_corner_args(p)
    p.add_argument("--dt", type=float, default=1e-12)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("balance", help="ISSA workload balancing demo")
    p.add_argument("--workload", default="80r0")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--reads", type=int, default=1 << 14)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("overheads", help="Sec. IV-C overhead numbers")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--columns", type=int, default=128)
    p.set_defaults(func=cmd_overheads)

    p = sub.add_parser("guardband",
                       help="guardbanding vs mitigation margins")
    p.add_argument("--lifetime", type=float, default=1e8,
                   help="sign-off lifetime in seconds")
    p.set_defaults(func=cmd_guardband)

    p = sub.add_parser("report",
                       help="assemble REPORT.md from benchmark artefacts")
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("tail",
                       help="rare-event offset-spec estimate with CIs")
    p.add_argument("--scheme", choices=("nssa", "issa"), default="nssa")
    p.add_argument("--workload", default=None,
                   help="paper workload name (e.g. 80r0); omit for t=0")
    p.add_argument("--time", type=float, default=0.0,
                   help="stress time in seconds (paper: 1e8)")
    p.add_argument("--failure-rate", type=float, default=1e-9,
                   help="tail failure-rate target (paper: 1e-9)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the estimates as JSON")
    _add_corner_args(p)
    _add_mc_args(p)
    _add_estimator_args(p, default="is")
    _add_cache_args(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("perf",
                       help="profile one table cell (fast-path counters)")
    p.add_argument("--scheme", choices=("nssa", "issa"), default="nssa")
    p.add_argument("--workload", default=None,
                   help="paper workload name (e.g. 80r0); omit for t=0")
    p.add_argument("--time", type=float, default=0.0,
                   help="stress time in seconds (paper: 1e8)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the perf counters as JSON")
    p.add_argument("--array", default=None, metavar="ROWSxCOLS",
                   help="profile a bank characterisation instead of a "
                        "cell (e.g. 64x4); the JSON then carries the "
                        "array.* counters")
    _add_corner_args(p)
    _add_mc_args(p)
    _add_estimator_args(p)
    _add_cache_args(p)
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("cache",
                       help="inspect or clear the persistent result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("serve",
                       help="run the characterisation job service "
                            "(batching, dedup, persistent queue) over "
                            "HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8972,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--service-dir", default=None, metavar="DIR",
                   help="job-store directory (default $REPRO_SERVICE_DIR "
                        "or ~/.cache/repro/service)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-cache directory (default: "
                        "<service-dir>/results)")
    p.add_argument("--pool-workers", type=int, default=1,
                   help="processes per batch (default 1: in-thread "
                        "serial; 0 means one per CPU)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="max pending jobs coalesced into one grid run")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="attempts per job before it fails for good")
    p.add_argument("--retry-base", type=float, default=0.5,
                   help="first-retry backoff in seconds (doubles per "
                        "attempt)")
    p.add_argument("--snapshot-every", type=int, default=256,
                   help="journal appends between snapshot compactions")
    p.add_argument("--workers", type=int, default=1,
                   help="local claim-loop workers (the autoscale "
                        "floor; default 1; 0 serves remote workers "
                        "only)")
    p.add_argument("--max-workers", type=int, default=None,
                   help="autoscale ceiling (default: 4x --workers "
                        "with --autoscale, else --workers)")
    p.add_argument("--autoscale", action="store_true",
                   help="scale workers with queue depth between "
                        "--workers and --max-workers")
    p.add_argument("--high-water", type=int, default=8,
                   help="pending-job depth that triggers a spawn "
                        "(default 8)")
    p.add_argument("--idle-retire", type=float, default=5.0,
                   help="seconds of empty queue before one worker "
                        "retires (default 5)")
    p.add_argument("--shards", type=int, default=1,
                   help="job-store partitions; identical requests "
                        "always land in the same shard (default 1: "
                        "the legacy flat layout)")
    p.add_argument("--lease", type=float, default=30.0,
                   help="worker lease seconds; a silent worker's jobs "
                        "requeue after this (0 disables leasing)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("worker",
                       help="attach a remote worker to a running "
                            "service and drain its queue over HTTP")
    p.add_argument("--attach", required=True, metavar="URL",
                   help="service base URL, e.g. http://host:8972")
    p.add_argument("--id", default=None,
                   help="worker identity for leases (default "
                        "remote-<host>-<pid>)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="local result cache; point at shared storage "
                        "to publish full payloads to the service")
    p.add_argument("--pool-workers", type=int, default=1,
                   help="processes per batch (default 1: in-thread "
                        "serial; 0 means one per CPU)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="max jobs claimed per request")
    p.add_argument("--poll", type=float, default=0.5,
                   help="idle seconds between empty claims")
    p.add_argument("--lease", type=float, default=60.0,
                   help="requested lease seconds (heartbeats renew at "
                        "a third of this)")
    p.add_argument("--exit-when-idle", action="store_true",
                   help="exit after the first empty claim (batch mode)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("fleet",
                       help="fleet-scale lifetime distributions and "
                            "mitigation-policy comparison")
    p.add_argument("--devices", type=int, default=100_000,
                   help="fleet size (default 100000)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--block-size", type=int, default=4096,
                   help="devices per sampling block (part of the "
                        "statistical identity; default 4096)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="devices per chunk — the peak-memory bound; "
                        "results are invariant to it")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for chunk fan-out (default 1: "
                        "serial; 0 means one per CPU); results are "
                        "invariant to it")
    p.add_argument("--years", default="1,3,10",
                   help="comma-separated checkpoint years "
                        "(default 1,3,10)")
    p.add_argument("--phases-per-year", type=int, default=4)
    p.add_argument("--reads-per-phase", type=int, default=1024,
                   help="observed reads per phase per device (the "
                        "streamed workload-trace resolution)")
    p.add_argument("--swing-mv", type=float, default=90.0,
                   help="offset spec: usable swing in mV (default 90)")
    p.add_argument("--temp", type=float, default=None,
                   help="pin the fleet to one temperature in C "
                        "(default: mixed 25/75/125 profile)")
    p.add_argument("--vdd", type=float, default=None,
                   help="pin the fleet to one supply in V "
                        "(default: mixed 0.9/1.0/1.1 profile)")
    p.add_argument("--policies", default="nssa,issa",
                   help="comma-separated schemes to compare; the first "
                        "is the baseline (default nssa,issa)")
    p.add_argument("--residual-imbalance", type=float, default=0.0,
                   help="ISSA residual duty imbalance in [0,1] "
                        "(0 = perfect internal balancing)")
    p.add_argument("--rejuvenation-years", type=float, default=0.0,
                   help="park the amplifier for recovery every N years "
                        "(0 = never)")
    p.add_argument("--rejuvenation-phases", type=int, default=1,
                   help="phases parked per rejuvenation interval")
    p.add_argument("--guardband-trim", type=float, default=0.0,
                   help="fraction of the swing spec given back "
                        "(tightens the offset spec)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full comparison report as JSON")
    p.set_defaults(func=cmd_fleet, parser=p)

    p = sub.add_parser("array",
                       help="bank-level array characterisation: "
                            "per-column read paths, ISSA-vs-NSSA "
                            "lifetime and read-latency tables")
    p.add_argument("--rows", default="64,256",
                   help="comma-separated rows axis of the geometry "
                        "grid (default 64,256)")
    p.add_argument("--columns", default="4,16",
                   help="comma-separated columns (SAs per bank) axis "
                        "(default 4,16)")
    p.add_argument("--words-per-row", type=int, default=4)
    p.add_argument("--mux", type=int, default=4,
                   help="bitline pairs muxed per SA (multiple of "
                        "words-per-row; default 4)")
    p.add_argument("--workload", default="80r0",
                   help="paper workload stressing the bank "
                        "(default 80r0; empty = unstressed)")
    p.add_argument("--times", default="0,1e8",
                   help="comma-separated aging checkpoints in seconds "
                        "(default 0,1e8)")
    p.add_argument("--temp", type=float, default=25.0)
    p.add_argument("--vdd", type=float, default=1.0)
    p.add_argument("--mc", type=int, default=64,
                   help="Monte-Carlo samples per column (default 64)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--swing-mv", type=float, default=250.0,
                   help="provisioned SA input swing in mV; the "
                        "lifetime verdict compares the bank spec plus "
                        "noise margin against it (default 250)")
    p.add_argument("--noise-margin-mv", type=float, default=20.0)
    p.add_argument("--schemes", default="nssa,issa",
                   help="comma-separated schemes; the first is the "
                        "comparison baseline (default nssa,issa)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the column fan-out (default 1: "
                        "serial; 0 means one per CPU); results are "
                        "invariant to it")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="columns per packed testbench, one parallel "
                        "task (default: 192 samples' worth); results "
                        "are invariant to it")
    from .spice.backends import available_backends as _backends
    p.add_argument("--backend", choices=_backends(), default=None)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full report(s) as JSON")
    p.set_defaults(func=cmd_array, parser=p)

    p = sub.add_parser("workloads", help="list the paper's workloads")
    p.set_defaults(func=cmd_workloads)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
