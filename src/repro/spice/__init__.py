"""Batched SPICE-like circuit simulator.

This package replaces the paper's use of Cadence Spectre with a compact,
numpy-vectorised modified-nodal-analysis simulator:

* :class:`~repro.spice.netlist.Circuit` — netlist container,
* :class:`~repro.spice.mna.MnaSystem` — compiled system (batched over a
  Monte-Carlo axis),
* :func:`~repro.spice.transient.run_transient` — fixed-step transient,
* :mod:`~repro.spice.measure` — crossing/delay measurements,
* :mod:`~repro.spice.waveforms` — DC / step / pulse / PWL sources.
"""

from .netlist import Circuit, Resistor, Capacitor, VSource, ISource, Mosfet
from .waveforms import Dc, Step, Pulse, Pwl, Waveform
from .mna import MnaSystem, GMIN_DEFAULT
from .solver import NewtonOptions, ConvergenceError, newton_solve
from .transient import run_transient, TransientResult, DecisionSpec
from .measure import crossing_time, delay_between, final_sign, settles_to

__all__ = [
    "Circuit", "Resistor", "Capacitor", "VSource", "ISource", "Mosfet",
    "Dc", "Step", "Pulse", "Pwl", "Waveform",
    "MnaSystem", "GMIN_DEFAULT",
    "NewtonOptions", "ConvergenceError", "newton_solve",
    "run_transient", "TransientResult", "DecisionSpec",
    "crossing_time", "delay_between", "final_sign", "settles_to",
]
