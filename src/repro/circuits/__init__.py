"""Circuit netlists: sense amplifiers, control logic, read path."""

from .sense_amp import (SenseAmpDesign, build_nssa, build_issa, ReadTiming,
                        read_operation, apply_waveforms,
                        latch_initial_conditions, NODE_CAP, OUTPUT_LOAD_CAP)
from .control import (ControlLogicGateLevel, IssaController, table1_rows,
                      PAPER_COUNTER_BITS)
from .double_tail import (build_double_tail, build_double_tail_switching,
                          double_tail_read, double_tail_duties)
from .readpath import (build_read_path, simulate_read, ReadPathTiming,
                       ReadPathResult, BITLINE_CAP)

__all__ = [
    "SenseAmpDesign", "build_nssa", "build_issa", "ReadTiming",
    "read_operation", "apply_waveforms", "latch_initial_conditions",
    "NODE_CAP", "OUTPUT_LOAD_CAP",
    "ControlLogicGateLevel", "IssaController", "table1_rows",
    "PAPER_COUNTER_BITS",
    "build_double_tail", "build_double_tail_switching",
    "double_tail_read", "double_tail_duties",
    "build_read_path", "simulate_read", "ReadPathTiming",
    "ReadPathResult", "BITLINE_CAP",
]
