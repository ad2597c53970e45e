"""Characterisation core: the paper's methodology end to end.

* :class:`~repro.core.testbench.SenseAmpTestbench` — batched read ops,
* :func:`~repro.core.offset.offset_distribution` — binary-search offset
  extraction (Monte Carlo),
* :func:`~repro.core.experiment.run_cell` — one table cell (mu, sigma,
  spec, delay),
* :func:`~repro.core.delay.delay_vs_aging` — Figure-7 sweeps,
* :mod:`~repro.core.mitigation` — system-level ISSA policy analyses,
* :mod:`~repro.core.calibration` — frozen calibrated parameters.
"""

from .testbench import SenseAmpTestbench, READ_PROBES
from .offset import (OffsetDistribution, extract_offsets,
                     offset_distribution, OFFSET_WINDOW, SEARCH_RANGE,
                     SEARCH_ITERATIONS)
from .montecarlo import McSettings, sample_total_shifts, sample_mismatch, \
    duties_for
from .experiment import (ExperimentCell, CellResult, run_cell,
                         build_design, DELAY_READ_SWING)
from .delay import delay_vs_aging, FIG7_TIMES
from .calibration import (default_aging_model, default_mc_settings,
                          PBTI_PARAMS, NBTI_PARAMS)
from .mitigation import (BalanceReport, stream_balance,
                         predicted_offset_spec, lifetime_to_spec,
                         lifetime_extension, SchemeComparison,
                         compare_schemes)
from .sensitivity import (SensitivityReport, measure_sensitivities,
                          PERTURBATION_DEFAULT)
from .schedule import (WorkloadPhase, device_segments,
                       sample_schedule_shifts, equivalent_workload_phase)
from .guardband import (WorstCase, GuardbandReport, worst_case_spec,
                        guardband_report, PAPER_CONDITION_SET)
from .paper import run_grid, grid_cells, shape_deviations, GridRow, \
    TABLE2_GRID, TABLE3_GRID, TABLE4_GRID
from .parallel import run_cells, default_workers
from .trimming import (TrimScheme, trimmed_offsets, trimmed_spec,
                       quantisation_floor_spec, compare_trimming,
                       TrimmingComparison)

__all__ = [
    "SenseAmpTestbench", "READ_PROBES",
    "OffsetDistribution", "extract_offsets", "offset_distribution",
    "OFFSET_WINDOW", "SEARCH_RANGE", "SEARCH_ITERATIONS",
    "McSettings", "sample_total_shifts", "sample_mismatch", "duties_for",
    "ExperimentCell", "CellResult", "run_cell", "build_design",
    "DELAY_READ_SWING",
    "delay_vs_aging", "FIG7_TIMES",
    "default_aging_model", "default_mc_settings", "PBTI_PARAMS",
    "NBTI_PARAMS",
    "BalanceReport", "stream_balance", "predicted_offset_spec",
    "lifetime_to_spec", "lifetime_extension", "SchemeComparison",
    "compare_schemes",
    "SensitivityReport", "measure_sensitivities", "PERTURBATION_DEFAULT",
    "WorkloadPhase", "device_segments", "sample_schedule_shifts",
    "equivalent_workload_phase",
    "WorstCase", "GuardbandReport", "worst_case_spec",
    "guardband_report", "PAPER_CONDITION_SET",
    "run_grid", "grid_cells", "shape_deviations", "GridRow",
    "TABLE2_GRID", "TABLE3_GRID", "TABLE4_GRID",
    "run_cells", "default_workers",
    "TrimScheme", "trimmed_offsets", "trimmed_spec",
    "quantisation_floor_spec", "compare_trimming", "TrimmingComparison",
]
