"""Netlists of the paper's sense amplifiers.

* :func:`build_nssa` — the standard latch-type SA of Figure 1 ("Non
  Switching Sense Amplifier").
* :func:`build_issa` — the Input Switching Sense Amplifier of Figure 2:
  a second pair of pass transistors (M3/M4) cross-connects the bitlines
  to the internal nodes so the control logic can swap the SA's inputs.

Device sizes follow the W/L annotations of Figure 1: cross-coupled NMOS
17.8, cross-coupled PMOS 5, pass gates 5, enable header 15.5, enable
footer 10, output inverters 5 (PMOS) / 2.5 (NMOS); 1 fF on each internal
node.  Pass transistors are PMOS (active-low enables, matching the
Table-I convention where a *high* SAenableA/B switches the pair off) —
appropriate for internal nodes that sit near the precharged-high
bitlines.

:func:`read_operation` builds the source waveforms of one read: a
develop phase in which the (pre-discharged) bitline levels pass to the
internal nodes, then a rising SAenable that isolates the latch and
triggers regeneration.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..constants import VDD_NOM
from ..models.mosmodel import MosParams
from ..models.ptm45 import NMOS_45HP, PMOS_45HP
from ..spice.netlist import Circuit
from ..spice.waveforms import Dc, Step, Waveform

#: Figure-1 device sizes (W/L ratios).
RATIO_DOWN = 17.8
RATIO_UP = 5.0
RATIO_PASS = 5.0
RATIO_TOP = 15.5
RATIO_BOTTOM = 10.0
RATIO_INV_P = 5.0
RATIO_INV_N = 2.5

#: Explicit internal-node capacitance from Figure 1 [F].
NODE_CAP = 1e-15

#: Output wire / downstream-gate load on Out and Outbar [F]; calibrated
#: so the nominal sensing delay lands at the paper's ~13.6 ps.
OUTPUT_LOAD_CAP = 2e-15


@dataclasses.dataclass(frozen=True)
class SenseAmpDesign:
    """A built sense amplifier and its port/metadata description.

    Attributes
    ----------
    circuit:
        The netlist.
    kind:
        ``"nssa"`` (fixed inputs) or ``"issa"`` (input switching);
        other topologies reuse these kinds to declare whether they
        support swapped reads.
    read_factory:
        Callable ``(design, vin, vdd, timing, swapped) -> waveforms``
        building the source waveforms of one read; defaults to the
        pass-gate :func:`read_operation`.
    ic_factory:
        Callable ``(vdd) -> {node: voltage}`` giving the pre-read
        initial conditions of the internal nodes.
    enable_nodes:
        Names of the enable source nodes that must be driven
        (``saen``/``saenbar`` and, for the ISSA, ``saena``/``saenb``).
    """

    circuit: Circuit
    kind: str
    read_factory: Optional[object] = None
    ic_factory: Optional[object] = None
    #: Complementary rail-swing outputs used for the delay measurement.
    output_nodes: Tuple[str, str] = ("out", "outbar")

    def __post_init__(self) -> None:
        if self.kind not in ("nssa", "issa"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.read_factory is None:
            object.__setattr__(self, "read_factory", read_operation)
        if self.ic_factory is None:
            object.__setattr__(self, "ic_factory",
                               latch_initial_conditions)

    def read_waveforms(self, vin, vdd: float,
                       timing: "ReadTiming", swapped: bool = False,
                       ) -> Dict[str, "Waveform"]:
        """Build source waveforms for one read on this design."""
        return self.read_factory(self, vin, vdd, timing, swapped)

    def initial_conditions(self, vdd: float) -> Dict[str, float]:
        """Pre-read initial voltages for the internal nodes."""
        return self.ic_factory(vdd)

    @property
    def is_switching(self) -> bool:
        return self.kind == "issa"

    @property
    def enable_nodes(self) -> Tuple[str, ...]:
        if self.is_switching:
            return ("saen", "saenbar", "saena", "saenb")
        return ("saen", "saenbar")

    def latch_device_names(self) -> Tuple[str, ...]:
        """The four cross-coupled devices whose aging sets the offset."""
        return ("Mdown", "MdownBar", "Mup", "MupBar")

    def pass_device_names(self) -> Tuple[str, ...]:
        if self.is_switching:
            return ("M1", "M2", "M3", "M4")
        return ("Mpass", "MpassBar")


def _add_core(circuit: Circuit, nmos: MosParams, pmos: MosParams) -> None:
    """Latch, enable devices, node caps and output inverters (shared)."""
    circuit.add_mosfet("Mtop", "top", "saenbar", "vdd", "vdd", pmos,
                       RATIO_TOP)
    circuit.add_mosfet("Mup", "s", "sbar", "top", "vdd", pmos, RATIO_UP)
    circuit.add_mosfet("MupBar", "sbar", "s", "top", "vdd", pmos, RATIO_UP)
    circuit.add_mosfet("Mdown", "s", "sbar", "bot", "0", nmos, RATIO_DOWN)
    circuit.add_mosfet("MdownBar", "sbar", "s", "bot", "0", nmos,
                       RATIO_DOWN)
    circuit.add_mosfet("Mbottom", "bot", "saen", "0", "0", nmos,
                       RATIO_BOTTOM)
    circuit.add_capacitor("Cs", "s", "0", NODE_CAP)
    circuit.add_capacitor("Csbar", "sbar", "0", NODE_CAP)
    # Output inverters: Out = not(SBar), Outbar = not(S), so Out carries
    # the logic value read on BL.
    circuit.add_mosfet("MinvOutP", "out", "sbar", "vdd", "vdd", pmos,
                       RATIO_INV_P)
    circuit.add_mosfet("MinvOutN", "out", "sbar", "0", "0", nmos,
                       RATIO_INV_N)
    circuit.add_mosfet("MinvOutbarP", "outbar", "s", "vdd", "vdd", pmos,
                       RATIO_INV_P)
    circuit.add_mosfet("MinvOutbarN", "outbar", "s", "0", "0", nmos,
                       RATIO_INV_N)
    circuit.add_capacitor("Cout", "out", "0", OUTPUT_LOAD_CAP)
    circuit.add_capacitor("Coutbar", "outbar", "0", OUTPUT_LOAD_CAP)


def build_nssa(nmos: MosParams = NMOS_45HP,
               pmos: MosParams = PMOS_45HP) -> SenseAmpDesign:
    """Build the standard latch-type sense amplifier (Figure 1)."""
    circuit = Circuit("nssa")
    for node in ("vdd", "bl", "blbar", "saen", "saenbar"):
        circuit.add_vsource(f"V{node}", node, Dc(VDD_NOM))
    circuit.add_mosfet("Mpass", "s", "saen", "bl", "vdd", pmos, RATIO_PASS)
    circuit.add_mosfet("MpassBar", "sbar", "saen", "blbar", "vdd", pmos,
                       RATIO_PASS)
    _add_core(circuit, nmos, pmos)
    return SenseAmpDesign(circuit, "nssa")


def build_issa(nmos: MosParams = NMOS_45HP,
               pmos: MosParams = PMOS_45HP) -> SenseAmpDesign:
    """Build the Input Switching Sense Amplifier (Figure 2).

    M1/M2 connect BL->S and BLBar->SBar (straight); M3/M4 connect
    BLBar->S and BL->SBar (swapped).  SAenableA controls M1/M2,
    SAenableB controls M3/M4; both active low.
    """
    circuit = Circuit("issa")
    for node in ("vdd", "bl", "blbar", "saen", "saenbar", "saena", "saenb"):
        circuit.add_vsource(f"V{node}", node, Dc(VDD_NOM))
    circuit.add_mosfet("M1", "s", "saena", "bl", "vdd", pmos, RATIO_PASS)
    circuit.add_mosfet("M2", "sbar", "saena", "blbar", "vdd", pmos,
                       RATIO_PASS)
    circuit.add_mosfet("M3", "s", "saenb", "blbar", "vdd", pmos, RATIO_PASS)
    circuit.add_mosfet("M4", "sbar", "saenb", "bl", "vdd", pmos, RATIO_PASS)
    _add_core(circuit, nmos, pmos)
    return SenseAmpDesign(circuit, "issa")


#: Fewest transient time steps across the SAenable rise.  Coarser steps
#: do not resolve it: dt = 3, 5, 10 and 30 ps over the default 5 ps rise
#: all fail (Newton divergence, or no delay to fit); 2.5 ps runs.
MIN_RISE_STEPS = 2


@dataclasses.dataclass(frozen=True)
class ReadTiming:
    """Timing of one simulated read operation.

    Attributes
    ----------
    t_develop:
        Duration of the develop phase (pass gates on) [s].
    t_rise:
        SAenable rise time [s].
    t_window:
        Total simulated time [s].
    dt:
        Transient time step [s]; at most ``t_rise / MIN_RISE_STEPS``.
    """

    t_develop: float = 30e-12
    t_rise: float = 5e-12
    t_window: float = 110e-12
    dt: float = 0.5e-12

    def __post_init__(self) -> None:
        if not all(value > 0.0 for value in (self.t_develop, self.t_rise,
                                              self.t_window, self.dt)):
            raise ValueError("all timing values must be positive")
        if not self.dt <= self.t_rise / MIN_RISE_STEPS:
            raise ValueError(
                f"dt must be at most {self.t_rise / MIN_RISE_STEPS:g} s "
                f"({MIN_RISE_STEPS} steps across the {self.t_rise:g} s "
                f"enable rise), got {self.dt:g}")
        if self.t_develop + self.t_rise >= self.t_window:
            raise ValueError("window too short for develop + rise")

    @property
    def t_enable_mid(self) -> float:
        """Time at which SAenable crosses 50 % (the delay reference)."""
        return self.t_develop + 0.5 * self.t_rise


#: Common-mode bitline discharge below Vdd during the develop phase [V].
BITLINE_COMMON_MODE_DROP = 0.1


def latch_initial_conditions(vdd: float) -> Dict[str, float]:
    """Pre-read state of the Figure-1/2 latch: nodes at bitline levels."""
    return {"s": vdd - BITLINE_COMMON_MODE_DROP,
            "sbar": vdd - BITLINE_COMMON_MODE_DROP,
            "top": vdd, "bot": 0.0, "out": 0.0, "outbar": 0.0}


def read_operation(design: SenseAmpDesign,
                   vin: Union[float, np.ndarray],
                   vdd: float = VDD_NOM,
                   timing: ReadTiming = ReadTiming(),
                   swapped: bool = False,
                   common_mode_drop: float = BITLINE_COMMON_MODE_DROP,
                   ) -> Dict[str, Waveform]:
    """Source waveforms of one read with input differential ``vin``.

    Parameters
    ----------
    design:
        The SA to drive.
    vin:
        Differential input ``V(BL) - V(BLBar)`` [V]; positive resolves
        S high (a read 1).  May be an array for batched binary search.
    vdd:
        Supply for this corner.
    timing:
        Read timing.
    swapped:
        ISSA only: drive the swapped pass pair (M3/M4) instead of the
        straight pair.
    common_mode_drop:
        Common-mode bitline level below Vdd during develop [V].

    Returns
    -------
    dict
        Source *node* name -> waveform, consumable by the circuit's
        vsources (``apply_waveforms``).
    """
    if swapped and not design.is_switching:
        raise ValueError("only the ISSA supports swapped reads")
    vin_arr = np.asarray(vin, dtype=float)
    common = vdd - common_mode_drop
    waveforms: Dict[str, Waveform] = {
        "vdd": Dc(vdd),
        "bl": Dc(common + vin_arr / 2.0),
        "blbar": Dc(common - vin_arr / 2.0),
        "saen": Step(0.0, vdd, timing.t_develop, timing.t_rise),
        "saenbar": Step(vdd, 0.0, timing.t_develop, timing.t_rise),
    }
    if design.is_switching:
        active = Step(0.0, vdd, timing.t_develop, timing.t_rise)
        inactive = Dc(vdd)
        waveforms["saena"] = inactive if swapped else active
        waveforms["saenb"] = active if swapped else inactive
    return waveforms


def apply_waveforms(design: SenseAmpDesign,
                    waveforms: Dict[str, Waveform]) -> None:
    """Install read waveforms into the design's voltage sources.

    Voltage sources are named ``V<node>``; this replaces their waveform
    objects in place (the netlist keeps its topology, so compiled
    systems must be rebuilt afterwards — see
    :class:`repro.core.testbench.SenseAmpTestbench` which handles this).
    """
    by_node = {v.node: index for index, v in
               enumerate(design.circuit.vsources)}
    for node, waveform in waveforms.items():
        if node not in by_node:
            raise KeyError(f"no source drives node {node!r}")
        index = by_node[node]
        old = design.circuit.vsources[index]
        design.circuit.vsources[index] = dataclasses.replace(
            old, waveform=waveform)
