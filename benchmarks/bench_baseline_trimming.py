"""Baseline comparison: offset trimming (paper ref. [12]) vs the ISSA.

The paper positions input switching against prior *time-zero*
compensation ("prior work mainly focuses on mitigating the SA offset
voltage due to time-zero variability").  This benchmark runs that
comparison: the same aged Monte-Carlo population (125 C, 80r0, 1e8 s)
evaluated as

* plain NSSA (fresh and aged),
* NSSA with a one-time factory trim (4 mV DAC, +-48 mV range),
* NSSA re-trimmed at end of life (the expensive in-field option),
* the ISSA,
* and the ISSA with the same factory trim — the schemes compose,
  since trimming kills the time-zero sigma and switching kills the
  workload-driven mean drift.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.trimming import TrimScheme, trimmed_spec

from .conftest import cached_cell, write_artifact

SCHEME = TrimScheme(step_v=0.004, range_v=0.048)


def build_comparison():
    nssa_fresh = cached_cell(("nssa", None, 0.0, 125.0, 1.0))
    nssa_aged = cached_cell(("nssa", "80r0", 1e8, 125.0, 1.0))
    issa_fresh = cached_cell(("issa", None, 0.0, 125.0, 1.0))
    issa_aged = cached_cell(("issa", "80r0", 1e8, 125.0, 1.0))

    rows = [
        ("NSSA untrimmed, fresh", nssa_fresh.spec_mv),
        ("NSSA untrimmed, aged", nssa_aged.spec_mv),
        ("NSSA trimmed at t=0, aged",
         trimmed_spec(nssa_fresh.offset.offsets,
                      nssa_aged.offset.offsets, SCHEME) * 1e3),
        ("NSSA re-trimmed at t=1e8s",
         trimmed_spec(nssa_aged.offset.offsets,
                      nssa_aged.offset.offsets, SCHEME) * 1e3),
        ("ISSA untrimmed, aged", issa_aged.spec_mv),
        ("ISSA trimmed at t=0, aged",
         trimmed_spec(issa_fresh.offset.offsets,
                      issa_aged.offset.offsets, SCHEME) * 1e3),
    ]
    return rows


def test_baseline_trimming(benchmark):
    rows = benchmark.pedantic(build_comparison, rounds=1, iterations=1)
    table = [[label, f"{spec:.1f}"] for label, spec in rows]
    text = ("Baseline comparison - trimming (ref. [12]) vs input "
            "switching (125C, 80r0, t=1e8s)\n"
            + format_table(["configuration", "offset spec [mV]"], table))
    write_artifact("baseline_trimming.txt", text)
    print("\n" + text)

    spec = dict(rows)
    # One-time trimming helps the aged NSSA but drift survives: it
    # cannot reach the ISSA (the paper's 'prior work is time-zero
    # only' positioning).
    assert (spec["NSSA trimmed at t=0, aged"]
            < spec["NSSA untrimmed, aged"])
    assert (spec["ISSA untrimmed, aged"]
            < spec["NSSA trimmed at t=0, aged"])
    # Even an in-field re-trim cannot rescue the drifted NSSA: the
    # 80 mV aged mean shift exceeds a DAC range sized for time-zero
    # spread (+-48 mV), so the clipped correction leaves a large
    # residual mean.  Re-sizing the DAC for worst-case drift is just
    # guardbanding in disguise.
    assert (spec["NSSA re-trimmed at t=1e8s"]
            > spec["ISSA untrimmed, aged"])
    # Trimming composes with switching: it removes the time-zero sigma
    # the ISSA cannot touch, and switching removes the drift the trim
    # cannot track.
    assert (spec["ISSA trimmed at t=0, aged"]
            < spec["ISSA untrimmed, aged"])
