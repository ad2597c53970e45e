"""Ablation: the offset-spec failure-rate target (paper fixes 1e-9).

Sweeps fr over 1e-6..1e-12 and reports the spec for the fresh and the
aged-unbalanced NSSA plus the ISSA, showing that the ISSA's advantage
is robust to (indeed grows slightly with) tighter reliability targets.
"""

from __future__ import annotations

from repro.analysis.failure import offset_spec, sigma_level
from repro.analysis.tables import format_table

from .conftest import cached_cell, write_artifact

RATES = (1e-6, 1e-9, 1e-12)


def build_ablation():
    fresh = cached_cell(("nssa", None, 0.0, 25.0, 1.0))
    nssa = cached_cell(("nssa", "80r0", 1e8, 125.0, 1.0))
    issa = cached_cell(("issa", "80r0", 1e8, 125.0, 1.0))
    rows = []
    for fr in RATES:
        spec_fresh = fresh.offset.spec_at(fr) * 1e3
        spec_nssa = nssa.offset.spec_at(fr) * 1e3
        spec_issa = issa.offset.spec_at(fr) * 1e3
        rows.append((fr, sigma_level(fr), spec_fresh, spec_nssa,
                     spec_issa, 1.0 - spec_issa / spec_nssa))
    return rows


def test_ablation_failure_rate(benchmark):
    rows = benchmark.pedantic(build_ablation, rounds=1, iterations=1)
    table = [[f"{fr:.0e}", f"{z:.2f}", f"{fresh:.1f}", f"{nssa:.1f}",
              f"{issa:.1f}", f"{red * 100:.1f}%"]
             for fr, z, fresh, nssa, issa, red in rows]
    text = ("Ablation - failure-rate target (125C, t=1e8s aged rows)\n"
            + format_table(["fr", "sigma level", "fresh spec [mV]",
                            "NSSA 80r0 [mV]", "ISSA 80% [mV]",
                            "ISSA reduction"], table))
    write_artifact("ablation_failure_rate.txt", text)
    print("\n" + text)

    by_rate = {fr: (z, red) for fr, z, _, _, _, red in rows}
    assert abs(by_rate[1e-9][0] - 6.1) < 0.05  # paper's 6.1 sigma
    # The ISSA wins at every target.
    for _, _, _, nssa, issa, red in rows:
        assert issa < nssa
        assert red > 0.2
