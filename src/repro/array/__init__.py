"""Array-scale characterisation: per-column read paths, bank verdicts.

The table/figure experiments characterise one sense amplifier; the
paper's overhead and lifetime arguments (Sec. IV) are made at array
scale — one control block driving *m* ISSA columns.  This package
promotes the single-SA pipeline to read-path/bank granularity:

- :mod:`.spec` — ``ArraySpec``: bank geometry (rows x columns x
  words-per-row x mux factor) plus the characterisation knobs, with the
  same JSON wire format discipline as ``fleet.spec``.
- :mod:`.sampling` — spawn-keyed per-column draw lanes.  Mismatch is
  keyed per (column, device *name*) so the shared latch devices receive
  identical draws under NSSA and ISSA (common random numbers), and a
  column's draws depend only on its key, not on the column fan-out.
- :mod:`.characterizer` — offset/delay characterisation of a packed
  column group on one testbench, with geometry-derived bitline loading
  injected onto the SA inputs.
- :mod:`.engine` — ``ArrayEngine``: fans schemes x checkpoints x
  column groups across processes (bitwise invariant to
  workers/chunk_size), aggregates
  per-bank specs through ``memory.yield_model``, and emits the
  bank-level ISSA-vs-NSSA lifetime and read-latency tables.
"""

from .spec import ArraySpec, ARRAY_STREAM, geometry_grid
from .sampling import (LANE_MISMATCH, LANE_AGING, column_mismatch,
                       column_aging)
from .characterizer import (characterize_column, characterize_columns,
                            build_column_design, sense_input_load)
from .engine import ArrayEngine

__all__ = [
    "ArraySpec", "ARRAY_STREAM", "geometry_grid",
    "LANE_MISMATCH", "LANE_AGING", "column_mismatch", "column_aging",
    "characterize_column", "characterize_columns", "build_column_design",
    "sense_input_load",
    "ArrayEngine",
]
