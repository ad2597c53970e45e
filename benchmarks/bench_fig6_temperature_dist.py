"""Regenerate Figure 6: temperature impact on the offset distribution
at t = 1e8 s (reuses the Table-IV cells)."""

from __future__ import annotations

from repro.analysis.figures import DistributionBar, render_bars

from .bench_table4_temperature import ROWS
from .conftest import cached_cell, write_artifact


def build_fig6():
    bars = []
    for spec in ROWS:
        scheme, _, time_s, temp_c, _ = spec
        if time_s == 0.0:
            continue
        result = cached_cell(spec)
        label = (f"{scheme.upper()} {result.cell.workload_label} "
                 f"{temp_c:.0f}C")
        bars.append(DistributionBar(label, result.mu_mv,
                                    result.sigma_mv))
    return bars


def test_fig6_temperature_distributions(benchmark):
    bars = benchmark.pedantic(build_fig6, rounds=1, iterations=1)
    text = ("Figure 6 - temperature impact on offset voltage at t=1e8s "
            "(x = mean, |---| = +-6 sigma)\n" + render_bars(bars))
    write_artifact("fig6.txt", text)
    print("\n" + text)

    by_label = {bar.label: bar for bar in bars}
    # Temperature is the strongest driver of the shift (Fig. 6).
    assert (by_label["NSSA 80r0 125C"].mu_mv
            > by_label["NSSA 80r0 75C"].mu_mv > 0.0)
    assert (by_label["NSSA 80r1 125C"].mu_mv
            < by_label["NSSA 80r1 75C"].mu_mv < 0.0)
    # ISSA stays centred even at 125 C.
    assert abs(by_label["ISSA 80% 125C"].mu_mv) < 5.0
    # Extents approach but respect the paper's +-220 mV axis.
    assert all(-220.0 < b.low_mv and b.high_mv < 220.0 for b in bars)
