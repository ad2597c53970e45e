"""Regenerate Figure 5: voltage impact on the offset distribution at
t = 1e8 s (reuses the Table-III cells)."""

from __future__ import annotations

from repro.analysis.figures import DistributionBar, render_bars

from .bench_table3_voltage import ROWS
from .conftest import cached_cell, write_artifact


def build_fig5():
    bars = []
    for spec in ROWS:
        scheme, _, time_s, _, vdd = spec
        if time_s == 0.0:
            continue  # the figure shows the aged distributions
        result = cached_cell(spec)
        label = (f"{scheme.upper()} {result.cell.workload_label} "
                 f"{'+' if vdd > 1.0 else '-'}10%Vdd")
        bars.append(DistributionBar(label, result.mu_mv,
                                    result.sigma_mv))
    return bars


def test_fig5_voltage_distributions(benchmark):
    bars = benchmark.pedantic(build_fig5, rounds=1, iterations=1)
    text = ("Figure 5 - voltage impact on offset voltage at t=1e8s "
            "(x = mean, |---| = +-6 sigma)\n" + render_bars(bars))
    write_artifact("fig5.txt", text)
    print("\n" + text)

    by_label = {bar.label: bar for bar in bars}
    # Higher Vdd widens the shift of unbalanced workloads (Fig. 5).
    assert (by_label["NSSA 80r0 +10%Vdd"].mu_mv
            > by_label["NSSA 80r0 -10%Vdd"].mu_mv > 0.0)
    assert (by_label["NSSA 80r1 +10%Vdd"].mu_mv
            < by_label["NSSA 80r1 -10%Vdd"].mu_mv < 0.0)
    # ISSA stays centred at both corners.
    assert abs(by_label["ISSA 80% +10%Vdd"].mu_mv) < 4.0
    assert abs(by_label["ISSA 80% -10%Vdd"].mu_mv) < 4.0
