"""Simulation substrate (DESIGN.md S8).

:class:`RandomStreams` hands out reproducible per-entity randomness, and
:class:`SimulationClock` is the forward-only clock the fault scenarios
advance along the grid.
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.randomness import RandomStreams

__all__ = ["RandomStreams", "SimulationClock"]
