"""Regenerate Table IV: temperature impact at t = 1e8 s (nominal Vdd)."""

from __future__ import annotations

from repro.analysis.tables import comparison_row, render_comparison
from repro.core.paper import GRIDS, paper_row

from .conftest import cached_cell, write_artifact

ROWS = GRIDS["4"]


def build_table4():
    return [(result, paper_row("4", result.cell))
            for result in map(cached_cell, ROWS)]


def test_table4_temperature(benchmark):
    results = benchmark.pedantic(build_table4, rounds=1, iterations=1)
    rows = [comparison_row(r.cell.scheme, r.cell.time_s,
                           r.cell.workload_label, r.cell.env.label(),
                           (r.mu_mv, r.sigma_mv, r.spec_mv, r.delay_ps),
                           paper)
            for r, paper in results]
    text = "Table IV - temperature impact (t=1e8s where aged)\n" \
        + render_comparison(rows)
    write_artifact("table4.txt", text)
    print("\n" + text)

    by_key = {(r.cell.scheme, r.cell.workload_label,
               r.cell.env.temperature_c): r for r, _ in results}
    hot_nssa = by_key[("nssa", "80r0", 125.0)]
    warm_nssa = by_key[("nssa", "80r0", 75.0)]
    hot_issa = by_key[("issa", "80%", 125.0)]
    hot_fresh = by_key[("nssa", "-", 125.0)]
    # Temperature dominates (paper: 79.1 mV at 125 C vs 45.0 at 75 C).
    assert hot_nssa.mu_mv > 1.4 * warm_nssa.mu_mv > 0.0
    # The headline ~40 % offset-spec reduction at 125 C.
    reduction = 1.0 - hot_issa.spec_mv / hot_nssa.spec_mv
    assert reduction > 0.3
    # Degradation of the NSSA spec roughly doubles over fresh (+99 %).
    assert hot_nssa.spec_mv > 1.7 * hot_fresh.spec_mv
    # The ~10 % delay advantage of the aged ISSA.
    assert hot_issa.delay_ps < hot_nssa.delay_ps
