"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-table2 --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` wraps each layer's entry points, prints the per-layer span
tree and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> ``{"value", "unit"}``).  Each run also leaves its
stamped result (and, traced, its spans) under ``.bench_out/``; compare
two sets of those with ``perfbench/compare.py``.

The program under test is pinned first: every ``REPRO_NO_*``,
``REPRO_BACKEND`` and ``REPRO_COMPILED_JIT`` switch is removed, and the
result cache, job-service store and temporary files live in a fresh
directory under ``.bench_work/`` that is deleted at exit.  The compiled
step kernel is built once into ``.bench_build/`` and copied into each
run's fresh cache, so set-up time measures loading it, not compiling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, render_tree  # noqa: E402

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac"),
              ("in_limit_frac", "frac"))

#: Switches that select legacy or alternative execution paths.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_COMPILED_JIT")


def pin_environment(root: str, workdir: str) -> Dict[str, str]:
    """Strip path switches and point every store into ``workdir``."""
    for key in list(os.environ):
        if key.startswith("REPRO_NO_") or key in PINNED_ENV:
            del os.environ[key]
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["REPRO_SERVICE_DIR"] = os.path.join(workdir, "service")
    # The revision stamp must not find a repository above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = src
    if src not in sys.path:
        sys.path.insert(0, src)
    return dict(os.environ)


def build_kernel(root: str) -> None:
    """Build the compiled step kernel once per checkout; install a copy.

    The first run in a checkout compiles it into ``.bench_build/``;
    every run copies it into its own fresh cache directory.
    """
    build = os.path.join(root, ".bench_build", "repro-cache")
    kernels = os.path.join(build, "cc-kernels")
    if not os.path.isdir(kernels):
        code = ("from repro.spice.backends import backend_host_info; "
                "backend_host_info()")
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                       timeout=600, env=dict(os.environ,
                                             REPRO_CACHE_DIR=build))
    if os.path.isdir(kernels):
        shutil.copytree(kernels, os.path.join(os.environ["REPRO_CACHE_DIR"],
                                              "cc-kernels"))


def settings_fingerprint(workload: str, seconds: float) -> str:
    with open(os.path.join(HERE, "reference.json"), "rb") as fh:
        reference = hashlib.sha256(fh.read()).hexdigest()
    blob = json.dumps({"workload": workload, "seconds": seconds,
                       "settings": workloads.SETTINGS,
                       "reference": reference}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stamp(root: str, args) -> Dict[str, Any]:
    import numpy
    from repro.analysis.provenance import git_revision
    from repro.core.parallel import default_workers
    from repro.spice.backends import backend_host_info
    backend = backend_host_info()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "revision": git_revision(root), "nproc": default_workers(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "flavor": backend.get("flavor"), "backend": backend,
            "settings": settings_fingerprint(args.workload, args.seconds)}


def end_to_end(run: workloads.Run) -> Dict[str, float]:
    lat = run.latencies
    # With no successful operation, report the whole run as the latency.
    p50 = stats.percentile(lat, 50.0) if lat else run.busy_s
    return {"setup_s": statistics.median(run.setup_s),
            "work_per_s": run.work / run.busy_s if run.busy_s else 0.0,
            "op_p50_s": p50,
            "peak_rss_mb": run.peak_rss_mb,
            "ok_frac": 1.0 - run.failed / max(1, run.attempted),
            "in_limit_frac": run.in_limit / max(1, run.attempted)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program under test (src/repro) in "
              f"{root}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: str, workdir: str) -> int:
    env = pin_environment(root, workdir)
    build_kernel(root)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    tracer = None
    if args.trace:
        spool = os.path.join(workdir, "spool")
        os.makedirs(spool)
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}",
                        spool)
    run = workloads.Run(args.workload, args.seed, args.seconds, root,
                        workdir, env, tracer, reference)
    if tracer is not None:
        workloads.install_tracing(run)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        run.layer.update(workloads.trace_layer(run, tracer.collect()))

    if args.trace:
        metrics = {name: {"value": float(run.layer.get(name, 0.0)),
                          "unit": unit}
                   for name, unit, _ in workloads.PER_LAYER}
    else:
        values = end_to_end(run)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END}

    record = {"stamp": stamp(root, args), "metrics": metrics,
              "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors, "notes": run.notes,
              "latency": stats.describe(run.latencies),
              "latencies": run.latencies,
              "setup_s": run.setup_s}
    out_dir = os.path.join(root, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    name = f"seed{args.seed}-trace{args.trace}-{int(time.time())}"
    with open(os.path.join(out_dir, name + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with open(os.path.join(out_dir, name + ".spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(render_tree(tracer.spans))

    st = record["stamp"]
    print(f"# {args.workload} seed={args.seed} revision={st['revision']} "
          f"nproc={st['nproc']} python={st['python']} numpy={st['numpy']} "
          f"flavor={st['flavor']} settings={st['settings']}")
    latency = record["latency"]
    tail = (f", p{latency['tail_q']:g} {latency['tail']:.4f} s"
            if "tail_q" in latency else
            " (too few samples for a tail percentile)")
    if latency["n"]:
        print(f"# operation latency: n={latency['n']}, median "
              f"{latency['p50']:.4f} s{tail}")
    for line in run.notes + run.errors:
        print(f"# {line}")
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed if run.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
