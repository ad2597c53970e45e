"""Fleet-scale aging simulation: millions of devices, streamed traces.

Public surface:

* :class:`~repro.fleet.spec.FleetSpec` — population / trace / corner
  description (JSON round-trippable).
* :class:`~repro.fleet.spec.MitigationPolicy` — one aging-management
  strategy (NSSA / ISSA, rejuvenation, guardband trim).
* :class:`~repro.fleet.engine.FleetEngine` — chunked, worker-parallel,
  bitwise chunking-invariant evaluation with lifetime-distribution
  summaries (`evaluate`) and policy comparison (`compare`).
"""

from .engine import FleetEngine
from .spec import FLEET_STREAM, FleetSpec, MitigationPolicy

__all__ = ["FleetEngine", "FleetSpec", "MitigationPolicy",
           "FLEET_STREAM"]
