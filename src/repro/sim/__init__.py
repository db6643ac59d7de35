"""Flit-level wormhole simulation engine (paper §4).

* :mod:`repro.sim.packet` — packet bookkeeping.
* :mod:`repro.sim.config` — :class:`SimulationConfig`, the complete recipe
  for one run (network, routing, traffic, load, windows, seed).
* :mod:`repro.sim.engine` — the three-phase cycle loop (link, crossbar,
  routing) over the lane structures of :mod:`repro.router`.
* :mod:`repro.sim.results` — raw per-run measurements.
* :mod:`repro.sim.run` — :class:`RunPlan` and :func:`run_plan`, the one
  run pipeline, and :func:`simulate`, its plain-config shorthand.
"""

from .config import SimulationConfig
from .engine import Engine
from .packet import Packet
from .results import RunResult
from .run import RunPlan, build_engine, run_plan, simulate

__all__ = [
    "SimulationConfig",
    "Engine",
    "Packet",
    "RunResult",
    "RunPlan",
    "build_engine",
    "run_plan",
    "simulate",
]
