"""Per-device sensitivity analysis of the sense amplifier.

Measures, by batched perturbation on the real simulator, how much each
transistor's threshold shift moves the two figures of merit:

* **offset sensitivity** [V/V] — the slope the BTI calibration and the
  fast analytic predictor rely on (the latch NMOS pair dominates with
  ~1.04 at the nominal corner; the PMOS pair contributes ~1 %);
* **delay sensitivity** [s/V] — which devices the delay degradation of
  Figure 7 actually flows through.

One batched simulation perturbs every device simultaneously (sample 0
is the unperturbed reference), so a full sensitivity map costs a single
binary-search/delay run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.sense_amp import ReadTiming, SenseAmpDesign
from ..models.temperature import Environment
from .offset import extract_offsets
from .testbench import PERTURBATION_DEFAULT, perturbation_bench


@dataclasses.dataclass(frozen=True)
class SensitivityReport:
    """Sensitivities of one design at one corner.

    Attributes
    ----------
    offset_per_volt:
        Device name -> d(offset)/d(Vth shift), dimensionless.
    delay_per_volt:
        Device name -> d(delay)/d(Vth shift) [s/V].
    perturbation:
        Applied shift magnitude [V].
    """

    offset_per_volt: Dict[str, float]
    delay_per_volt: Dict[str, float]
    perturbation: float

    def dominant_offset_devices(self, count: int = 2) -> Sequence[str]:
        """Devices with the largest |offset sensitivity|."""
        ranked = sorted(self.offset_per_volt,
                        key=lambda n: abs(self.offset_per_volt[n]),
                        reverse=True)
        return tuple(ranked[:count])

    def dominant_delay_devices(self, count: int = 2) -> Sequence[str]:
        """Devices with the largest |delay sensitivity|."""
        ranked = sorted(self.delay_per_volt,
                        key=lambda n: abs(self.delay_per_volt[n]),
                        reverse=True)
        return tuple(ranked[:count])


def measure_sensitivities(design: SenseAmpDesign, env: Environment,
                          devices: Optional[Sequence[str]] = None,
                          perturbation: float = PERTURBATION_DEFAULT,
                          timing: ReadTiming = ReadTiming(),
                          delay_vin: float = -0.2,
                          offset_iterations: int = 16,
                          ) -> SensitivityReport:
    """Measure offset and delay sensitivities of every device.

    Parameters
    ----------
    design:
        The SA design (fresh netlist — shifts are installed here).
    env:
        Environmental corner.
    devices:
        Device names to probe; defaults to all MOSFETs.
    perturbation:
        Vth shift applied to each probed device [V].
    timing:
        Read-operation timing.
    delay_vin:
        Input differential for the delay measurement [V].
    offset_iterations:
        Bisection depth (resolution must be well below the expected
        offset moves).
    """
    if perturbation <= 0.0:
        raise ValueError("perturbation must be positive")
    names = list(devices if devices is not None
                 else design.circuit.mosfet_ratios())
    bench = perturbation_bench(design, env, names, perturbation,
                               timing=timing)
    offsets = extract_offsets(bench, iterations=offset_iterations)
    delays = bench.sensing_delay(np.full(bench.batch_size, delay_vin))
    bench.clear_vth_shifts()

    offset_sens = {name: float((offsets[i + 1] - offsets[0])
                               / perturbation)
                   for i, name in enumerate(names)}
    delay_sens = {name: float((delays[i + 1] - delays[0])
                              / perturbation)
                  for i, name in enumerate(names)}
    return SensitivityReport(offset_per_volt=offset_sens,
                             delay_per_volt=delay_sens,
                             perturbation=perturbation)
