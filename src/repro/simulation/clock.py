"""Simulated wall-clock time.

The paper assumes NTP-synchronised clocks across nodes (SII); in the
simulator a single :class:`SimulationClock` plays that role. Time is a
float in seconds and only ever moves forward.
"""

from __future__ import annotations

from repro.exceptions import SimulationError

__all__ = ["SimulationClock"]


class SimulationClock:
    """Monotonically advancing simulated time.

    Its driver owns the clock; everything else reads :attr:`now` and
    must never set it directly.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t``.

        Raises:
            SimulationError: if ``t`` lies in the past — a driver
                stepping out of order is a programming error worth
                failing loudly on.
        """
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {t} < {self._now}")
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulationClock(now={self._now:.3f})"
