"""Regenerate ``perfbench/reference.json``, the expected outputs.

Usage, from the root of a checkout::

    python3 perfbench/reference.py

Runs every pool item of every workload once, through the same public
entry points the benchmark drives, and records:

- ``paper-table2``: per (Monte-Carlo seed, Table-II cell) the SHA-256 of
  the float64 offsets plus spec, and the mean delay (checked to 1 fs);
- ``bank-256x16``: per bank seed the SHA-256 of every field of the
  comparison document that does not depend on a delay (column offset
  statistics, bank summaries, comparison spec columns, lifetimes), the
  delays (checked to 1 fs) and the read-time gaps behind the latency
  gains (checked to 2 fs);
- ``fleet-mixed``: per fleet seed the SHA-256 of the exact comparison
  document;
- ``service-http``: per request the row of a direct ``run_cell``.

Regenerate only when a change is *meant* to alter the science, and say
so: a benchmark run whose outputs differ from this file counts every
differing operation as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402
from run import build_kernel, pin_environment  # noqa: E402


def paper() -> dict:
    return {workloads.paper_key(mc_seed, index):
            workloads.paper_fingerprint(
                workloads.run_paper_cell(mc_seed, index))
            for mc_seed, index in workloads.paper_pool()}


def bank() -> dict:
    return {str(seed): stats.bank_fingerprint(workloads.run_bank(seed))
            for seed in workloads.BANK_SEEDS}


def fleet() -> dict:
    return {str(seed): stats.doc_digest(workloads.run_fleet(seed))
            for seed in workloads.FLEET_SEEDS}


def service() -> dict:
    return {workloads.request_key(request): workloads.direct_row(request)
            for request in workloads.service_pool()}


BUILDERS = {"fleet-mixed": fleet, "service-http": service,
            "bank-256x16": bank, "paper-table2": paper}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]
                            ).parse_args(argv)
    root = os.getcwd()
    workdir = os.path.join(root, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(workdir)
    path = os.path.join(HERE, "reference.json")
    try:
        pin_environment(root, workdir)
        build_kernel(root)
        reference = {}
        for name, builder in BUILDERS.items():
            print(f"computing {name} ...", flush=True)
            reference[name] = builder()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
