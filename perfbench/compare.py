"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``perfbench/run.py``
(``.bench_out/<workload>/*.json``, searched recursively).  For every
workload and metric the script prints both sides' medians and
quartiles, the change relative to the base median (signed so that a
positive share is better), the base's own spread (inter-quartile
distance over median) and the bound from ``BENCHMARK.json``.  Where
the base spread exceeds the bound, a difference is unresolved.

It refuses (exit code 2) to compare result sets whose kernel flavor or
settings fingerprint differ: those measure different programs or
different workloads, and any difference between them is not the
change's.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load(directory: str) -> Dict[Tuple[str, int], List[dict]]:
    """``(workload, trace)`` -> result records under ``directory``."""
    out: Dict[Tuple[str, int], List[dict]] = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                record = json.load(fh)
            if "stamp" not in record:
                continue
            key = (record["stamp"]["workload"], record["stamp"]["trace"])
            out.setdefault(key, []).append(record)
    return out


def identity(records: List[dict]) -> set:
    return {(r["stamp"]["flavor"], r["stamp"]["settings"]) for r in records}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    return stats.quartile_spread(values) if len(values) >= 2 else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key in sorted(set(base) & set(change)):
        if identity(base[key]) != identity(change[key]) \
                or len(identity(base[key])) != 1:
            print(f"refusing to compare {key[0]}: kernel flavor or "
                  f"settings fingerprint differ "
                  f"({identity(base[key])} vs {identity(change[key])})",
                  file=sys.stderr)
            return 2
    print(f"{'workload':14s} {'metric':32s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'gain':>8s} {'spread':>7s} "
          f"{'bound':>6s}")
    for key in sorted(set(base) & set(change)):
        names = sorted(base[key][0]["metrics"])
        for name in names:
            a = [r["metrics"][name]["value"] for r in base[key]]
            b = [r["metrics"][name]["value"] for r in change[key]]
            qa, qb = quartiles(a), quartiles(b)
            sign = 1.0 if better.get(name) == "higher" else -1.0
            gain = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            limit = f"{bound[name]:.2f}" if name in bound else "-"
            print(f"{key[0]:14s} {name:32s} "
                  f"{qa[0]:9.4g}/{qa[1]:9.4g}/{qa[2]:9.4g} "
                  f"{qb[0]:9.4g}/{qb[1]:9.4g}/{qb[2]:9.4g} "
                  f"{gain:+8.3f} {spread(a):7.3f} {limit:>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
