"""The serializable description of one installed correlation guard."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Container, Mapping

from repro.core.correlation import TriggerRule
from repro.exceptions import ConfigurationError

__all__ = ["TriggerPlan", "count_edge"]

_PLAN_KEYS = {"target", "trigger", "elevation_level", "suspend_interval",
              "hysteresis", "min_hold"}


@dataclass(frozen=True, slots=True)
class TriggerPlan:
    """One guard: ``target`` idles unless ``trigger`` is elevated.

    This is the unit the trigger channel installs, inspects, checkpoints
    and re-installs after failover — plain data, exact
    ``to_dict``/``from_dict`` round-trip, fail-closed on unknown keys.

    Attributes:
        target: the guarded (expensive) task's name.
        trigger: the cheap task whose elevation arms the target.
        elevation_level: trigger value at which the target arms.
        suspend_interval: idle interval (grid steps) while disarmed.
        hysteresis: relative band below ``elevation_level`` the trigger
            must leave before the target disarms (0.1 = 10% below).
        min_hold: minimum steps between arm/disarm transitions.
    """

    target: str
    trigger: str
    elevation_level: float
    suspend_interval: int = 10
    hysteresis: float = 0.1
    min_hold: int = 5

    def __post_init__(self) -> None:
        if not self.target or not self.trigger:
            raise ConfigurationError("plan needs target and trigger names")
        if self.target == self.trigger:
            raise ConfigurationError(
                f"task {self.target!r} cannot trigger itself")
        if self.suspend_interval < 2:
            raise ConfigurationError(
                f"suspend_interval must be >= 2, got {self.suspend_interval}")
        if not 0.0 <= self.hysteresis < 1.0:
            raise ConfigurationError(
                f"hysteresis must be in [0, 1), got {self.hysteresis}")
        if self.min_hold < 0:
            raise ConfigurationError(
                f"min_hold must be >= 0, got {self.min_hold}")

    def refuse_second_level(self, guarded: Mapping[str, float]) -> None:
        """Refuse this plan if it would re-level a watch other targets
        rely on: a trigger task carries one watch, hence one level.

        ``guarded`` maps each target guarded on this plan's trigger to the
        level it is guarded at. The plan's own target may re-level itself.
        """
        clash = sorted(target for target, level in guarded.items()
                       if target != self.target
                       and level != self.elevation_level)
        if clash:
            raise ConfigurationError(
                f"task {self.trigger!r} is watched at level "
                f"{guarded[clash[0]]!r} for {clash}; a trigger task "
                f"carries one watch, hence one level")

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the wire/checkpoint representation)."""
        return {
            "target": self.target,
            "trigger": self.trigger,
            "elevation_level": float(self.elevation_level),
            "suspend_interval": int(self.suspend_interval),
            "hysteresis": float(self.hysteresis),
            "min_hold": int(self.min_hold),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TriggerPlan":
        """Inverse of :meth:`to_dict`; unknown keys fail closed."""
        unknown = set(data) - _PLAN_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown trigger plan keys: {sorted(unknown)}")
        missing = {"target", "trigger", "elevation_level"} - set(data)
        if missing:
            raise ConfigurationError(
                f"trigger plan missing keys: {sorted(missing)}")
        return cls(
            target=str(data["target"]),
            trigger=str(data["trigger"]),
            elevation_level=float(data["elevation_level"]),
            suspend_interval=int(data.get("suspend_interval", 10)),
            hysteresis=float(data.get("hysteresis", 0.1)),
            min_hold=int(data.get("min_hold", 5)),
        )

    @classmethod
    def from_rule(cls, rule: TriggerRule, suspend_interval: int = 10,
                  hysteresis: float = 0.1, min_hold: int = 5,
                  ) -> "TriggerPlan":
        """Lift a planner :class:`~repro.core.correlation.TriggerRule`."""
        return cls(target=rule.target_id, trigger=rule.trigger_id,
                   elevation_level=rule.elevation_level,
                   suspend_interval=suspend_interval,
                   hysteresis=hysteresis, min_hold=min_hold)


def count_edge(plans: Mapping[str, TriggerPlan], tasks: Container[str],
               edges: dict[str, int], event: Mapping[str, Any]) -> None:
    """Count one watch edge into ``edges`` (``trigger_plans``' counter)
    once per plan watching its trigger whose target is in ``tasks`` —
    the one rule both servers count by, whoever delivers the edge."""
    for plan in plans.values():
        if plan.trigger == event["trigger"] and plan.target in tasks:
            edges[event["op"]] += 1
