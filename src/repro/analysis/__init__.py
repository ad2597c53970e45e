"""Statistics, Eq.-3 spec solving, paper references, reports."""

from .stats import NormalFit, fit_normal, valid_fraction
from .failure import sigma_level, failure_rate_at, offset_spec
from .tables import (format_table, comparison_row, render_comparison,
                     relative_error, COMPARISON_HEADERS)
from .figures import (DistributionBar, DelaySeries, render_bars,
                      render_delay_series, crossover_time)
from .report import assemble_report, write_report, ReportStatus
from .perf import PerfRecorder, PERF
from . import reference

__all__ = [
    "NormalFit", "fit_normal", "valid_fraction",
    "sigma_level", "failure_rate_at", "offset_spec",
    "format_table", "comparison_row", "render_comparison",
    "relative_error", "COMPARISON_HEADERS",
    "DistributionBar", "DelaySeries", "render_bars",
    "render_delay_series", "crossover_time",
    "assemble_report", "write_report", "ReportStatus",
    "PerfRecorder", "PERF",
    "reference",
]
