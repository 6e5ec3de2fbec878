"""Common value types shared across the library.

These are deliberately small, immutable records: the core algorithms pass
them between layers (monitor -> coordinator -> experiment harness) without
any behaviour attached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ThresholdDirection(enum.Enum):
    """Which side of the threshold constitutes a state violation.

    The paper only discusses upper thresholds (``v > T``); lower thresholds
    (``v < T``) are supported by negating values internally, which leaves
    every bound derivation unchanged.
    """

    UPPER = "upper"
    LOWER = "lower"

    def violated(self, value: float, threshold: float) -> bool:
        """Return True when ``value`` violates ``threshold`` on this side."""
        if self is ThresholdDirection.UPPER:
            return value > threshold
        return value < threshold

    def orient(self, value: float) -> float:
        """Map a value into the canonical upper-threshold frame.

        Violation-likelihood math is written for ``v > T``; for lower
        thresholds both the value and the threshold are negated so the same
        inequalities apply.
        """
        if self is ThresholdDirection.UPPER:
            return value
        return -value


@dataclass(frozen=True, slots=True)
class Sample:
    """One sampling operation's outcome.

    Attributes:
        time_index: grid position in units of the default interval ``Id``.
        value: the monitored state value observed by the sampling operation.
    """

    time_index: int
    value: float


@dataclass(frozen=True, slots=True)
class Alert:
    """A detected state violation.

    Attributes:
        time_index: grid position (units of ``Id``) at which the violation
            was observed.
        value: the violating state value.
        threshold: the threshold in force when the alert fired.
    """

    time_index: int
    value: float
    threshold: float


@dataclass(frozen=True, slots=True)
class GlobalPoll:
    """The coordinator's response to a local violation.

    The coordinator collects the current value from every monitor of the
    task and evaluates the global condition.

    Attributes:
        time_index: grid position of the poll.
        values: value collected from each monitor, ordered by monitor id.
        total: aggregate (sum) of ``values``.
        violated: whether the aggregate crossed the global threshold.
    """

    time_index: int
    values: tuple[float, ...]
    total: float
    violated: bool
