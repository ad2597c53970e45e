"""Chunked fleet evaluation and lifetime-distribution summaries.

:class:`FleetEngine` drives :mod:`repro.fleet.sampling` over a whole
population: sampling blocks are grouped into *chunks* (a memory bound —
one chunk's trap arrays live at a time), chunks fan out across worker
processes through :func:`repro.core.parallel.run_tasks`, and each chunk
returns one partial: its blocks' integer statistics summed, their float
sums kept per block for the merge to fold **in block order** with plain
Python float accumulation.  Because every random draw is spawn-keyed
per block and the merge order is fixed, the summary is bitwise
identical for any ``chunk_size`` / ``workers`` combination (pinned by
``tests/fleet``).
Memory held by the partials grows with the number of chunks.

Summaries are JSON-primitive dictionaries so they can be journaled,
cached (``ResultCache`` doc entries) and served over HTTP unchanged.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.perf import PERF
from ..core.parallel import run_tasks
from ..memory.yield_model import YieldModel, yield_loss_ppm
from .sampling import HIST_BINS, block_stats, evaluate_block
from .spec import FleetSpec, MitigationPolicy

#: Histogram quantiles reported per checkpoint year.
QUANTILES = (0.5, 0.9, 0.99, 0.999)


def _fold(acc: Optional[Dict], year: Dict, sums: Sequence) -> Dict:
    """Add one checkpoint's partial into ``acc`` (a new one if ``None``).

    Counts, histograms, workload tallies and the extremes are exact
    under any grouping; the float ``(sum, sumsq)`` pairs in ``sums``
    are only collected, per block and in block order, for
    :func:`_merge_year` to fold.
    """
    if acc is None:
        acc = {"n": 0, "out": 0, "min": float("inf"),
               "max": float("-inf"),
               "hist": np.zeros(HIST_BINS, dtype=np.int64),
               "workload_n": np.zeros_like(year["workload_n"]),
               "workload_out": np.zeros_like(year["workload_out"]),
               "sums": []}
    acc["n"] += year["n"]
    acc["out"] += year["out"]
    acc["min"] = min(acc["min"], year["min"])
    acc["max"] = max(acc["max"], year["max"])
    acc["hist"] += year["hist"]
    acc["workload_n"] += year["workload_n"]
    acc["workload_out"] += year["workload_out"]
    acc["sums"].extend(sums)
    return acc


def _evaluate_chunk(spec: FleetSpec, policy: MitigationPolicy,
                    blocks: Sequence[int]) -> Dict:
    """Worker task: evaluate consecutive blocks, return one partial.

    The chunk's blocks are folded as they finish, so a chunk returns
    one histogram per checkpoint however many blocks it holds.
    """
    years: List[Optional[Dict]] = [None] * len(spec.years)
    with PERF.timer("fleet.evaluate"):
        for block in blocks:
            offsets, w_idx = evaluate_block(spec, policy, block)
            partial = block_stats(spec, policy, offsets, w_idx)
            years = [_fold(acc, year, [(year["sum"], year["sumsq"])])
                     for acc, year in zip(years, partial["years"])]
            PERF.count("fleet.blocks")
            PERF.count("fleet.devices", offsets.shape[1])
    return {"years": years}


def _merge_year(partials: List[Dict], year_index: int) -> Dict:
    """Fold one checkpoint's per-chunk partials, in block order."""
    acc = None
    for partial in partials:
        year = partial["years"][year_index]
        acc = _fold(acc, year, year["sums"])
    total = sumsq = 0.0
    for block_sum, block_sumsq in acc.pop("sums"):
        total += block_sum
        sumsq += block_sumsq
    acc.update({"sum": total, "sumsq": sumsq})
    return acc


def _histogram_quantile(hist: np.ndarray, n: int, q: float) -> float:
    """Upper edge [V] of the |offset| bin holding the ``q`` quantile."""
    rank = int(np.ceil(q * n))
    cumulative = np.cumsum(hist)
    bin_index = int(np.searchsorted(cumulative, max(rank, 1)))
    return (bin_index + 1) * 1e-4


def _year_summary(spec: FleetSpec, policy: MitigationPolicy,
                  merged: Dict, year: float,
                  yield_model: YieldModel) -> Dict:
    n = merged["n"]
    mean = merged["sum"] / n
    var = max(merged["sumsq"] / n - mean * mean, 0.0)
    fraction_out = merged["out"] / n
    workloads = {}
    for index, (name, _) in enumerate(spec.workloads):
        w_n = int(merged["workload_n"][index])
        w_out = int(merged["workload_out"][index])
        workloads[name] = {
            "n": w_n, "out": w_out,
            "fraction_out": (w_out / w_n) if w_n else 0.0}
    return {
        "year": year,
        "n": n,
        "out": merged["out"],
        "fraction_out": fraction_out,
        "chip_loss_ppm": yield_loss_ppm(fraction_out, yield_model),
        "offset_mean_mv": mean * 1e3,
        "offset_std_mv": float(np.sqrt(var)) * 1e3,
        "offset_min_mv": merged["min"] * 1e3,
        "offset_max_mv": merged["max"] * 1e3,
        "quantiles_mv": {f"p{q * 100:g}".replace(".", "_"):
                         _histogram_quantile(merged["hist"], n, q) * 1e3
                         for q in QUANTILES},
        "workloads": workloads,
    }


class FleetEngine:
    """Evaluates lifetime distributions for a fleet specification.

    Parameters
    ----------
    spec:
        The population (see :class:`~repro.fleet.spec.FleetSpec`).
    workers:
        Worker processes for chunk fan-out; ``None`` = one per CPU,
        ``<= 1`` = serial.  Results are invariant to this.
    chunk_size:
        Target devices per chunk — the peak-memory bound.  Rounded up
        to whole sampling blocks; ``None`` defaults to 16 blocks.
        Results are invariant to this.
    yield_model:
        Array organisation for the chip-loss aggregation.
    """

    def __init__(self, spec: FleetSpec, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 yield_model: YieldModel = YieldModel()) -> None:
        self.spec = spec
        self.workers = workers
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk size must be positive")
        self.chunk_size = chunk_size
        self.yield_model = yield_model

    def _chunks(self) -> List[Tuple[int, ...]]:
        per_chunk = (16 if self.chunk_size is None
                     else -(-self.chunk_size // self.spec.block_size))
        blocks = list(range(self.spec.n_blocks))
        return [tuple(blocks[i:i + per_chunk])
                for i in range(0, len(blocks), per_chunk)]

    def evaluate(self, policy: MitigationPolicy,
                 timeout: Optional[float] = None,
                 cancel: Optional[Any] = None) -> Dict:
        """Lifetime-distribution summary for one mitigation policy."""
        started = time.perf_counter()
        chunks = self._chunks()
        partials = run_tasks(
            _evaluate_chunk,
            [(self.spec, policy, blocks) for blocks in chunks],
            workers=self.workers, timeout=timeout, cancel=cancel)
        PERF.count("fleet.chunks", len(chunks))
        PERF.count("fleet.policies")
        elapsed = time.perf_counter() - started
        if elapsed > 0.0:
            PERF.gauge("fleet.devices_per_sec",
                       self.spec.n_devices / elapsed)
        years = [
            _year_summary(self.spec, policy,
                          _merge_year(partials, index), year,
                          self.yield_model)
            for index, year in enumerate(self.spec.years)]
        # ``engine`` names the trap walk; the vectorised one is the
        # only walk, but stored and digested summaries carry the tag.
        return {"policy": policy.to_dict(),
                "engine": "vector",
                "years": years}

    def compare(self, policies: Sequence[MitigationPolicy],
                timeout: Optional[float] = None,
                cancel: Optional[Any] = None) -> Dict:
        """Evaluate several policies and diff them against the first.

        All policies share the mismatch/corner/trace draws (common
        random numbers — only the trap lane is policy-keyed), so the
        comparison isolates the mitigation effect.
        """
        if not policies:
            raise ValueError("need at least one policy")
        summaries = [self.evaluate(policy, timeout=timeout, cancel=cancel)
                     for policy in policies]
        baseline = summaries[0]
        comparison = []
        for summary in summaries[1:]:
            rows = []
            for base_year, year in zip(baseline["years"],
                                       summary["years"]):
                rows.append({
                    "year": year["year"],
                    "fraction_out_baseline": base_year["fraction_out"],
                    "fraction_out": year["fraction_out"],
                    "out_of_spec_ratio": (
                        year["fraction_out"] / base_year["fraction_out"]
                        if base_year["fraction_out"] else None),
                    "chip_loss_ppm_saved": (
                        base_year["chip_loss_ppm"]
                        - year["chip_loss_ppm"]),
                })
            comparison.append({"policy": summary["policy"]["name"],
                               "baseline": baseline["policy"]["name"],
                               "years": rows})
        return {"spec": self.spec.to_dict(),
                "policies": summaries,
                "comparison": comparison}
