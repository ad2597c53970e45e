"""Bank-level characterisation engine.

``ArrayEngine`` fans packed column-group characterisations across
processes and aggregates them into per-bank verdicts:

- the joint **bank spec** — the smallest provisioned swing at which a
  whole bank read (all columns at once) meets the paper's failure-rate
  target, solved through ``memory.yield_model.bank_spec`` (always at
  least the worst column's spec);
- the bank **read latency** — decode + develop + sense + output, with
  the develop time coming from the geometry-derived pi-model bitline
  and the bank spec's swing budget (``memory.array.read_latency``);
- the **lifetime verdict** — the last aging checkpoint at which the
  bank spec plus noise margin still fits under the provisioned swing.

``compare`` runs several schemes over the same spec and emits the
ISSA-vs-NSSA lifetime / latency table.  The columns are packed into
groups of ``chunk_size`` (default: :data:`PACK_SAMPLES` samples' worth)
that share one testbench, and every (scheme, checkpoint, group) is one
task of a single ``core.parallel.run_tasks`` fan-out.  Because every
draw is spawn-keyed per column and a sample's offset and delay do not
depend on the batch it is packed in, the report is bitwise invariant
to ``workers`` and ``chunk_size``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.perf import PERF
from ..circuits.sense_amp import ReadTiming
from ..constants import FAILURE_RATE_TARGET
from ..core.offset import PILOT
from ..core.parallel import run_tasks
from ..core.testbench import check_batch_steps
from ..memory.array import ArrayTiming, read_latency
from ..memory.bitline import bitline_from_geometry
from ..memory.yield_model import (YieldModel, bank_spec,
                                  sa_failure_probability, yield_loss_ppm)
from .characterizer import characterize_columns, sense_input_load
from .spec import ArraySpec, validate_schemes

#: Samples a packed column group aims for (mc 24 packs 8 columns).
#: Every full group then holds more than ``2 * PILOT`` samples, so its
#: offset search refits the predictor on its own pilot and the per-read
#: overhead is shared by many columns, while a pool worker's testbench
#: stays small.
PACK_SAMPLES = 4 * PILOT


def group_columns(spec: ArraySpec, chunk_size: Optional[int] = None) -> int:
    """Columns per packed testbench: ``chunk_size``, else as many as fit
    :data:`PACK_SAMPLES` (at least one).

    Refuses, with ``ValueError``, a group whose packed batch (columns
    in a group x ``spec.mc``) passes the sample-step ceiling of
    :func:`~repro.core.testbench.check_batch_steps`.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk size must be positive")
    columns = chunk_size or max(1, PACK_SAMPLES // spec.mc)
    check_batch_steps(min(columns, spec.columns) * spec.mc, ReadTiming())
    return columns


class ArrayEngine:
    """Characterise a bank across schemes and aging checkpoints.

    Parameters
    ----------
    spec:
        Bank geometry and characterisation knobs.
    workers:
        Process count for the column fan-out (``None`` = auto).
    chunk_size:
        Columns per packed testbench, which is one parallel task
        (``None`` = as many as fit :data:`PACK_SAMPLES`, at least one;
        see :func:`group_columns`).  A knob for scheduling only — never
        part of the result or the cache identity.
    yield_model:
        Chip organisation for the yield-loss column of the report.
    backend:
        Solver backend name threaded into every testbench.
    """

    def __init__(self, spec: ArraySpec,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 yield_model: Optional[YieldModel] = None,
                 backend: Optional[str] = None) -> None:
        self.spec = spec
        self.workers = workers
        self.chunk_size = group_columns(spec, chunk_size)
        self.yield_model = yield_model or YieldModel()
        self.backend = backend

    # -- scheduling -------------------------------------------------------
    def _column_groups(self) -> List[Tuple[int, ...]]:
        columns = list(range(self.spec.columns))
        size = self.chunk_size
        return [tuple(columns[i:i + size])
                for i in range(0, len(columns), size)]

    # -- aggregation ------------------------------------------------------
    def _bank_summary(self, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        spec = self.spec
        fits = [(row["mu_v"], row["sigma_v"]) for row in rows]
        specs = sorted(row["spec_v"] for row in rows)
        worst_spec_v = specs[-1]
        median_spec_v = specs[len(specs) // 2]
        joint_spec_v = bank_spec(fits, FAILURE_RATE_TARGET)
        worst_delay_s = max(row["delay_s"] for row in rows)
        bitline = bitline_from_geometry(spec.rows, spec.mux_factor,
                                        vdd=spec.vdd)
        latency = read_latency(joint_spec_v, worst_delay_s,
                               bitline=bitline, timing=ArrayTiming(),
                               noise_margin_v=spec.noise_margin_v)
        required_v = joint_spec_v + spec.noise_margin_v
        worst_mu, worst_sigma = max(
            fits, key=lambda f: sa_failure_probability(*f, spec.swing_v))
        loss_ppm = yield_loss_ppm(
            sa_failure_probability(worst_mu, worst_sigma, spec.swing_v),
            self.yield_model)
        return {
            "columns": len(rows),
            "worst_spec_mv": worst_spec_v * 1e3,
            "median_spec_mv": median_spec_v * 1e3,
            "bank_spec_mv": joint_spec_v * 1e3,
            "worst_delay_ps": worst_delay_s * 1e12,
            "develop_ps": latency.develop_s * 1e12,
            "read_ps": latency.total_ps,
            "required_swing_mv": required_v * 1e3,
            "in_spec": required_v <= spec.swing_v,
            "yield_loss_ppm": loss_ppm,
        }

    # -- characterisation -------------------------------------------------
    def _characterize_all(self, schemes: Sequence[str],
                          timeout: Optional[float],
                          cancel: Optional[Any]) -> Dict[str, Any]:
        """Per-column rows and bank summaries for each scheme.

        Every (scheme, checkpoint, column group) is one task of one
        fan-out, so the pool stays busy across schemes and checkpoints.
        """
        spec = self.spec
        groups = self._column_groups()
        args = [(spec, scheme, time_s, group, self.backend)
                for scheme in schemes for time_s in spec.times_s
                for group in groups]
        with PERF.timer("array.characterize"):
            group_rows = iter(run_tasks(characterize_columns, args,
                                        workers=self.workers,
                                        timeout=timeout, cancel=cancel))
        PERF.count("array.tasks", len(args))
        results = {}
        for scheme in schemes:
            checkpoints = []
            for time_s in spec.times_s:
                rows = [row for _ in groups for row in next(group_rows)]
                PERF.count("array.columns", len(rows))
                checkpoints.append({
                    "time_s": time_s,
                    "columns": rows,
                    "bank": self._bank_summary(rows),
                })
            PERF.count("array.banks", len(checkpoints))
            results[scheme] = {"scheme": scheme,
                               "checkpoints": checkpoints}
        return results

    def characterize(self, scheme: str, timeout: Optional[float] = None,
                     cancel: Optional[Any] = None) -> Dict[str, Any]:
        """Per-column rows and bank summaries for one scheme."""
        (scheme,) = validate_schemes((scheme,))
        return self._characterize_all((scheme,), timeout, cancel)[scheme]

    @staticmethod
    def _lifetime(checkpoints: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Last in-spec / first out-of-spec checkpoint times."""
        in_spec = [c["time_s"] for c in checkpoints if c["bank"]["in_spec"]]
        out = [c["time_s"] for c in checkpoints
               if not c["bank"]["in_spec"]]
        return {
            "last_in_spec_s": in_spec[-1] if in_spec else None,
            "first_out_of_spec_s": out[0] if out else None,
        }

    def compare(self, schemes: Sequence[str] = ("nssa", "issa"),
                timeout: Optional[float] = None,
                cancel: Optional[Any] = None) -> Dict[str, Any]:
        """The bank-level scheme-comparison table (a JSON document)."""
        schemes = validate_schemes(schemes)
        spec = self.spec
        start = time.perf_counter()
        with PERF.timer("array.compare"):
            results = self._characterize_all(schemes, timeout, cancel)
        elapsed = time.perf_counter() - start
        PERF.count("array.compares")
        for name, value in spec.geometry().items():
            PERF.gauge(f"array.{name}", value)
        if elapsed > 0.0:
            total_columns = (len(schemes) * len(spec.times_s)
                             * spec.columns)
            PERF.gauge("array.columns_per_sec", total_columns / elapsed)

        bitline = bitline_from_geometry(spec.rows, spec.mux_factor,
                                        vdd=spec.vdd)
        comparison = []
        baseline = schemes[0]
        for index, time_s in enumerate(spec.times_s):
            entry: Dict[str, Any] = {"time_s": time_s}
            for scheme in schemes:
                bank = results[scheme]["checkpoints"][index]["bank"]
                entry[f"{scheme}_spec_mv"] = bank["bank_spec_mv"]
                entry[f"{scheme}_read_ps"] = bank["read_ps"]
            if len(schemes) > 1:
                base = results[baseline]["checkpoints"][index]["bank"]
                for scheme in schemes[1:]:
                    bank = results[scheme]["checkpoints"][index]["bank"]
                    entry[f"{scheme}_spec_reduction_mv"] = (
                        base["bank_spec_mv"] - bank["bank_spec_mv"])
                    entry[f"{scheme}_latency_gain_pct"] = (
                        (base["read_ps"] - bank["read_ps"])
                        / base["read_ps"] * 100.0)
            comparison.append(entry)

        return {
            "spec": spec.to_dict(),
            "geometry": spec.geometry(),
            "bitline": {
                "model": "pi",
                "resistance_ohm": bitline.resistance,
                "capacitance_ff": bitline.capacitance * 1e15,
                "time_constant_ps": bitline.time_constant * 1e12,
                "sense_load_ff": sense_input_load(spec) * 1e15,
            },
            "schemes": results,
            "comparison": comparison,
            "lifetime": {
                scheme: self._lifetime(results[scheme]["checkpoints"])
                for scheme in schemes
            },
        }
