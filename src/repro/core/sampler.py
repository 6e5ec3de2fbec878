"""Sampling-scheme protocol shared by Volley and the baselines.

Any object exposing ``observe(value, time_index) -> SamplingDecision`` and an
``interval`` property can drive a monitor: the experiment runners are
written against this protocol, so adaptive sampling
(:class:`repro.core.adaptation.ViolationLikelihoodSampler`), periodic
sampling and the oracle baseline are interchangeable.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.adaptation import SamplingDecision

__all__ = ["SamplingScheme", "SamplingDecision"]


@runtime_checkable
class SamplingScheme(Protocol):
    """Structural interface of a sampling scheme."""

    @property
    def interval(self) -> int:
        """Current sampling interval in default-interval units."""
        ...

    def observe(self, value: float, time_index: int) -> SamplingDecision:
        """Absorb a sampled value; return the decision for the next sample."""
        ...
