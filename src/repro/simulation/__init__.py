"""Simulation substrate (DESIGN.md S8).

:class:`RandomStreams` hands out reproducible per-entity randomness.
"""

from repro.simulation.randomness import RandomStreams

__all__ = ["RandomStreams"]
