"""Regenerate Table II: workload impact on offset voltage and delay.

Nominal corner (25 C, 1.0 V); six workloads for the NSSA, activation
rates for the ISSA; t = 0 and t = 1e8 s.  Prints and stores the
paper-vs-measured table.
"""

from __future__ import annotations

from repro.analysis.tables import comparison_row, render_comparison
from repro.core.paper import GRIDS, paper_row

from .conftest import cached_cell, write_artifact

ROWS = GRIDS["2"]


def build_table2():
    return [(result, paper_row("2", result.cell))
            for result in map(cached_cell, ROWS)]


def test_table2_workload(benchmark):
    results = benchmark.pedantic(build_table2, rounds=1, iterations=1)
    rows = [comparison_row(r.cell.scheme, r.cell.time_s,
                           r.cell.workload_label, "25C/nom",
                           (r.mu_mv, r.sigma_mv, r.spec_mv, r.delay_ps),
                           paper)
            for r, paper in results]
    text = "Table II - workload impact (25C, 1.0V)\n" \
        + render_comparison(rows)
    write_artifact("table2.txt", text)
    print("\n" + text)

    by_label = {(r.cell.scheme, r.cell.workload_label): r
                for r, _ in results}
    fresh = by_label[("nssa", "-")]
    aged_unbalanced = by_label[("nssa", "80r0")]
    issa = by_label[("issa", "80%")]
    # Shape assertions mirroring the paper's Table-II reading.
    assert aged_unbalanced.mu_mv > 8.0
    assert aged_unbalanced.spec_mv > 1.15 * fresh.spec_mv
    assert abs(issa.mu_mv) < 4.0
    assert issa.spec_mv < aged_unbalanced.spec_mv
