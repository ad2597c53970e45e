"""Event-driven gate-level logic simulation (ISSA control logic)."""

from .signals import (LOW, HIGH, UNKNOWN, logic_not, logic_and, logic_or,
                      logic_nand, logic_nor, logic_xor, is_valid, Event)
from .gates import Gate, Dff, Tff
from .simulator import LogicCircuit, LogicSimulator
from .counter import RippleCounter, build_ripple_counter

__all__ = [
    "LOW", "HIGH", "UNKNOWN", "logic_not", "logic_and", "logic_or",
    "logic_nand", "logic_nor", "logic_xor", "is_valid", "Event",
    "Gate", "Dff", "Tff", "LogicCircuit", "LogicSimulator",
    "RippleCounter", "build_ripple_counter",
]
