"""Percentiles, spreads and output digests used by the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import struct
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Percentile ladder the reporting rule picks from.
LADDER = (50.0, 90.0, 99.0, 99.9)

#: Delays may differ by this much between kernel flavors [s]; offsets
#: and specs must match bit for bit.
DELAY_TOLERANCE_S = 1e-15


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def reportable_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it
    (fewer than 20 samples): report the median alone, with ``n``.
    """
    best = None
    for q in LADDER:
        if round(n * (100.0 - q) / 100.0, 9) >= 10.0:
            best = q
    return best


def describe(values: Sequence[float]) -> Dict[str, Any]:
    """Median, the reportable tail percentile and the sample count."""
    out: Dict[str, Any] = {"n": len(values)}
    if values:
        out["p50"] = percentile(values, 50.0)
        q = reportable_percentile(len(values))
        if q is not None and q > 50.0:
            out["tail_q"] = q
            out["tail"] = percentile(values, q)
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


# -- output digests ---------------------------------------------------------

def float_digest(values: Iterable[float]) -> str:
    """SHA-256 over the exact little-endian float64 bytes."""
    h = hashlib.sha256()
    for value in values:
        h.update(struct.pack("<d", float(value)))
    return h.hexdigest()


def cell_digest(offsets: Sequence[float], spec: float) -> str:
    """Digest of one cell: its offset population and its spec."""
    return float_digest(list(offsets) + [spec])


def doc_digest(doc: Any) -> str:
    """Digest of a JSON document (float repr round-trips exactly)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def delays_match(got: Sequence[float], want: Sequence[float],
                 tolerance_s: float = DELAY_TOLERANCE_S) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= tolerance_s for a, b in zip(got, want))


#: Bank-summary fields computed from column delays [ps].
BANK_DELAY_FIELDS = ("worst_delay_ps", "develop_ps", "read_ps")


def bank_fingerprint(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Expected-output record of an ``ArrayEngine.compare`` document.

    ``digest`` covers, exactly, every field that does not depend on a
    delay: spec, geometry, bitline, each column's offset statistics and
    invalid count, each bank summary's spec, swing, in-spec verdict and
    yield loss, the comparison's spec columns and the lifetimes.
    ``delays`` [s] are the column delays, the bank summaries' delay
    fields and the comparison's read times, checked to 1 fs.  ``gaps``
    [s] are the read-time differences behind each latency gain (a
    difference of two delays, so checked to 2 fs).
    """
    exact: Dict[str, Any] = {key: doc[key] for key in
                             ("spec", "geometry", "bitline", "lifetime")}
    delays: List[float] = []
    for scheme, result in doc["schemes"].items():
        checkpoints = []
        for checkpoint in result["checkpoints"]:
            columns = []
            for row in checkpoint["columns"]:
                delays.append(row["delay_s"])
                columns.append({k: v for k, v in row.items()
                                if k != "delay_s"})
            bank = dict(checkpoint["bank"])
            delays += [bank.pop(key) * 1e-12 for key in BANK_DELAY_FIELDS]
            checkpoints.append({"time_s": checkpoint["time_s"],
                                "columns": columns, "bank": bank})
        exact[f"schemes.{scheme}"] = checkpoints
    baseline = next(iter(doc["schemes"]))
    comparison: List[Dict[str, Any]] = []
    gaps: List[float] = []
    for entry in doc["comparison"]:
        base_read_ps = entry[f"{baseline}_read_ps"]
        kept = {}
        for key, value in sorted(entry.items()):
            if key.endswith("_read_ps"):
                delays.append(value * 1e-12)
            elif key.endswith("_latency_gain_pct"):
                gaps.append(value / 100.0 * base_read_ps * 1e-12)
            else:
                kept[key] = value
        comparison.append(kept)
    exact["comparison"] = comparison
    return {"digest": doc_digest(exact), "delays": delays, "gaps": gaps}


def bank_matches(got: Dict[str, Any], want: Dict[str, Any]) -> bool:
    """Exact digest, delays to 1 fs, read-time gaps to 2 fs."""
    return (got["digest"] == want["digest"]
            and delays_match(got["delays"], want["delays"])
            and delays_match(got["gaps"], want["gaps"],
                             2.0 * DELAY_TOLERANCE_S))
