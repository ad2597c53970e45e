"""Regenerate Figure 4: offset distributions (mu, +-6 sigma) per
workload at the nominal corner.

Reuses the Table-II cells (in-process cache), so this benchmark's cost
is rendering plus any cache misses.
"""

from __future__ import annotations

from repro.analysis.figures import DistributionBar, render_bars

from .bench_table2_workload import ROWS
from .conftest import cached_cell, write_artifact


def build_fig4():
    bars = []
    for spec in ROWS:
        scheme, _, time_s, _, _ = spec
        result = cached_cell(spec)
        label = (f"{scheme.upper()} t={time_s:.0e} "
                 f"{result.cell.workload_label}")
        bars.append(DistributionBar(label, result.mu_mv,
                                    result.sigma_mv))
    return bars


def test_fig4_workload_distributions(benchmark):
    bars = benchmark.pedantic(build_fig4, rounds=1, iterations=1)
    text = ("Figure 4 - workload impact on offset voltage "
            "(x = mean, |---| = +-6 sigma)\n" + render_bars(bars))
    write_artifact("fig4.txt", text)
    print("\n" + text)

    by_label = {bar.label: bar for bar in bars}
    up = by_label["NSSA t=1e+08 80r0"]
    down = by_label["NSSA t=1e+08 80r1"]
    balanced = by_label["NSSA t=1e+08 80r0r1"]
    # The figure's visual claim: unbalanced bars shift up/down, the
    # balanced and ISSA bars stay centred.
    assert up.mu_mv > 8.0 > balanced.mu_mv > -8.0 > down.mu_mv
    assert abs(by_label["ISSA t=1e+08 80%"].mu_mv) < 4.0
    # +-6 sigma extents stay within the paper's +-220 mV axis.
    assert all(-220.0 < b.low_mv and b.high_mv < 220.0 for b in bars)
