"""State-monitoring task specifications (paper SII, SIII-A).

A task is defined by a violation threshold, a *default sampling interval*
``Id`` (the smallest interval necessary for the task — mis-detection is
negligible at ``Id``), an *error allowance* ``err`` (the acceptable
probability of missing violations relative to periodic-``Id`` sampling) and
a maximum interval ``Im`` the adaptive sampler may ever use.

Distributed tasks add a global threshold split into per-monitor local
thresholds with ``sum(T_i) = T`` so that "no local violation" implies "no
global violation" and monitors can run independently between local
violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Any, Sequence

from repro.exceptions import ConfigurationError
from repro.types import ThresholdDirection

__all__ = ["TaskSpec", "DistributedTaskSpec", "spec_columns"]


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """Specification of a single-monitor state monitoring task.

    Attributes:
        threshold: violation threshold ``T``.
        error_allowance: ``err`` in [0, 1] — the acceptable fraction of
            violations (as seen by periodic-``Id`` sampling) that may be
            missed. 0 forces periodic sampling at ``Id``.
        default_interval: ``Id`` in seconds (only used to translate grid
            units to wall-clock; all algorithms work in grid units).
        max_interval: ``Im`` in units of ``Id``; the adaptive sampler never
            exceeds it.
        direction: which side of the threshold is a violation.
        name: optional human-readable identifier.
    """

    threshold: float
    error_allowance: float
    default_interval: float = 1.0
    max_interval: int = 10
    direction: ThresholdDirection = ThresholdDirection.UPPER
    name: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_allowance <= 1.0:
            raise ConfigurationError(
                f"error_allowance must be in [0, 1], got {self.error_allowance}")
        if self.default_interval <= 0:
            raise ConfigurationError(
                f"default_interval must be > 0, got {self.default_interval}")
        if self.max_interval < 1:
            raise ConfigurationError(
                f"max_interval must be >= 1, got {self.max_interval}")

    def violated(self, value: float) -> bool:
        """Whether ``value`` constitutes a state violation for this task."""
        return self.direction.violated(value, self.threshold)

    def oriented(self) -> tuple[float, float]:
        """Return ``(sign, threshold)`` mapping to the upper-threshold frame.

        Monitored values should be multiplied by ``sign`` and compared
        against the returned threshold with ``>``.
        """
        if self.direction is ThresholdDirection.UPPER:
            return 1.0, self.threshold
        return -1.0, -self.threshold

    def with_error_allowance(self, err: float) -> "TaskSpec":
        """A copy of this spec with a different error allowance."""
        return replace(self, error_allowance=err)


def spec_columns(tasks: Sequence[TaskSpec]) -> dict[str, list[Any]]:
    """``tasks`` as one list per :class:`TaskSpec` field, ``direction``
    spelled by value: a snapshot's ``spec`` group, which is what
    :meth:`~repro.core.soa.SoaSamplerEngine.add_tasks` reads."""
    paths = {spec.name: spec.name for spec in fields(TaskSpec)}
    # An enum member's ``_value_`` is a plain attribute; ``.value`` is a
    # property, the costliest read of the lot.
    paths["direction"] = "direction._value_"
    return {key: list(map(attrgetter(path), tasks))
            for key, path in paths.items()}


@dataclass(frozen=True, slots=True)
class DistributedTaskSpec:
    """Specification of a distributed state monitoring task.

    The global condition is ``sum_i v_i > T`` (upper direction). Each
    monitor ``i`` watches its local stream against a local threshold
    ``T_i``; the decomposition must satisfy ``sum(T_i) <= T`` so that local
    silence guarantees global silence (paper SII-A uses equality; the
    inequality is what safety actually needs and lets experiments skew the
    local thresholds).

    Attributes:
        global_threshold: the global threshold ``T``.
        local_thresholds: per-monitor thresholds, summing to ``T``.
        error_allowance: global error allowance ``err``; the coordinator
            splits it across monitors (``sum beta_i <= err``).
        default_interval: ``Id`` in seconds.
        max_interval: ``Im`` in units of ``Id``.
        name: optional identifier.
    """

    global_threshold: float
    local_thresholds: tuple[float, ...]
    error_allowance: float
    default_interval: float = 1.0
    max_interval: int = 10
    name: str = ""
    _rel_tol: float = field(default=1e-6, repr=False)

    def __post_init__(self) -> None:
        if not self.local_thresholds:
            raise ConfigurationError("need at least one local threshold")
        if not 0.0 <= self.error_allowance <= 1.0:
            raise ConfigurationError(
                f"error_allowance must be in [0, 1], got {self.error_allowance}")
        if self.max_interval < 1:
            raise ConfigurationError(
                f"max_interval must be >= 1, got {self.max_interval}")
        if self.default_interval <= 0:
            raise ConfigurationError(
                f"default_interval must be > 0, got {self.default_interval}")
        total = sum(self.local_thresholds)
        scale = max(abs(self.global_threshold), 1.0)
        # Safety requires sum(T_i) <= T: then "no local violation" implies
        # "no global violation". Equality maximises local slack; Fig. 8
        # deliberately skews local thresholds, so only the inequality is
        # enforced (with tolerance for floating point).
        if total - self.global_threshold > self._rel_tol * scale:
            raise ConfigurationError(
                "local thresholds must not sum above the global threshold: "
                f"sum={total!r} vs T={self.global_threshold!r}")

    @property
    def num_monitors(self) -> int:
        """Number of monitors participating in the task."""
        return len(self.local_thresholds)

    def local_spec(self, monitor_id: int, local_error: float) -> TaskSpec:
        """Build the local :class:`TaskSpec` for one monitor.

        Args:
            monitor_id: index into :attr:`local_thresholds`.
            local_error: the error-allowance share assigned to the monitor.
        """
        if not 0 <= monitor_id < self.num_monitors:
            raise ConfigurationError(
                f"monitor_id {monitor_id} out of range "
                f"[0, {self.num_monitors})")
        return TaskSpec(
            threshold=self.local_thresholds[monitor_id],
            error_allowance=local_error,
            default_interval=self.default_interval,
            max_interval=self.max_interval,
            name=f"{self.name or 'task'}/monitor{monitor_id}",
        )

    @staticmethod
    def with_even_thresholds(global_threshold: float, num_monitors: int,
                             error_allowance: float,
                             **kwargs: object) -> "DistributedTaskSpec":
        """Convenience constructor splitting ``T`` evenly across monitors."""
        if num_monitors < 1:
            raise ConfigurationError(
                f"num_monitors must be >= 1, got {num_monitors}")
        share = global_threshold / num_monitors
        return DistributedTaskSpec(
            global_threshold=global_threshold,
            local_thresholds=tuple(share for _ in range(num_monitors)),
            error_allowance=error_allowance,
            **kwargs,  # type: ignore[arg-type]
        )
