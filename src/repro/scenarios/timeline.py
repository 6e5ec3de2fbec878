"""Declarative incident timelines (the scenario engine's source language).

A :class:`Timeline` describes a fleet-scale incident the way the staged
DDoS exercise scripts do: a sequence of named :class:`Phase` objects
("calm", "probe", "wave1", ...), each with a duration in default-interval
grid steps, zero or more workload :class:`Overlay` layers (ramps, spikes,
decays, entropy collapses) painted on top of a shared base workload, and
declared ground-truth :class:`TruthWindow` spans in which the incident is
supposed to violate the monitoring threshold.

Everything is validated fail-closed at construction: phase durations
partition the horizon by definition, and every overlay/window footprint
(including its onset spread across the affected sub-fleet) must fit
inside its phase. Compilation into concrete per-task traces is the job of
:mod:`repro.scenarios.compiler`; a ``(seed, timeline)`` pair fully
determines a run.
"""

from __future__ import annotations

from dataclasses import (dataclass, field, fields as dataclass_fields,
                         replace)
from typing import Any

from repro.config import check_task_params
from repro.exceptions import ConfigurationError
from repro.triggers.plan import TriggerPlan
from repro.types import ThresholdDirection

__all__ = [
    "OVERLAY_KINDS",
    "Overlay",
    "Phase",
    "PhaseSpan",
    "ThresholdSpec",
    "Timeline",
    "TriggerLink",
    "TruthWindow",
    "WorkloadLayer",
]

OVERLAY_KINDS = ("ramp", "decay", "step", "spike", "scale", "entropy_shift")
"""Supported overlay shapes.

``ramp`` rises linearly 0 -> peak; ``decay`` falls peak -> 0; ``step``
holds at peak; ``spike`` ramps up, holds, ramps down (SYN-flood shape);
``scale`` multiplies the base by ``peak`` (flash-crowd shape);
``entropy_shift`` *subtracts* a spike-shaped amount, clamped at
``floor`` — the entropy-collapse signature of a flood of near-identical
packets.
"""

_THRESHOLD_KINDS = ("absolute", "selectivity")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


@dataclass(frozen=True, slots=True)
class Overlay:
    """One workload layer painted over a phase's base traffic.

    Args:
        kind: shape, one of :data:`OVERLAY_KINDS`.
        peak: magnitude — additive units for the additive kinds, a
            multiplicative factor for ``scale``, the subtracted depth for
            ``entropy_shift``.
        start: onset offset from the phase start, in grid steps.
        length: footprint length in steps (``None`` = to the phase end).
        ramp_steps: shoulder length for ``spike``/``entropy_shift``.
        coverage: fraction of the fleet affected; the affected tasks are
            the first ``ceil(coverage * tasks)`` ranks, so nested
            incidents (incipient group inside the cascade group) overlap.
        spread: total steps over which affected-task onsets are staggered
            (rank 0 starts at ``start``, the last affected rank at
            ``start + spread``) — rolling/cascading failures.
        jitter: per-step multiplicative noise sigma on the profile.
        floor: clamp applied after ``entropy_shift`` subtraction.
    """

    kind: str
    peak: float
    start: int = 0
    length: int | None = None
    ramp_steps: int = 4
    coverage: float = 1.0
    spread: int = 0
    jitter: float = 0.0
    floor: float = 0.0

    def __post_init__(self) -> None:
        _require(self.kind in OVERLAY_KINDS,
                 f"unknown overlay kind {self.kind!r} "
                 f"(expected one of {OVERLAY_KINDS})")
        _require(self.start >= 0,
                 f"overlay start must be >= 0, got {self.start}")
        _require(self.length is None or self.length >= 1,
                 f"overlay length must be >= 1, got {self.length}")
        _require(self.ramp_steps >= 1,
                 f"ramp_steps must be >= 1, got {self.ramp_steps}")
        _require(0.0 < self.coverage <= 1.0,
                 f"coverage must be in (0, 1], got {self.coverage}")
        _require(self.spread >= 0,
                 f"spread must be >= 0, got {self.spread}")
        _require(self.spread == 0 or self.length is not None,
                 "an overlay with spread > 0 needs an explicit length")
        _require(self.jitter >= 0.0,
                 f"jitter must be >= 0, got {self.jitter}")
        if self.kind == "scale":
            _require(self.peak > 0.0,
                     f"scale overlays need peak > 0, got {self.peak}")

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in
                dataclass_fields(self)}


@dataclass(frozen=True, slots=True)
class TruthWindow:
    """A declared ground-truth violation span, relative to its phase.

    The scorer joins detected alerts against these windows; coverage and
    spread follow the same sub-fleet semantics as :class:`Overlay`, so a
    window is normally authored with the same geometry as the overlay
    that causes it.
    """

    start: int
    length: int
    coverage: float = 1.0
    spread: int = 0

    def __post_init__(self) -> None:
        _require(self.start >= 0,
                 f"window start must be >= 0, got {self.start}")
        _require(self.length >= 1,
                 f"window length must be >= 1, got {self.length}")
        _require(0.0 < self.coverage <= 1.0,
                 f"coverage must be in (0, 1], got {self.coverage}")
        _require(self.spread >= 0,
                 f"spread must be >= 0, got {self.spread}")

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in
                dataclass_fields(self)}


@dataclass(frozen=True, slots=True)
class TriggerLink:
    """A declarative correlation guard over the fleet (DESIGN.md S32).

    One cheap task (by fleet rank) guards a set of expensive targets:
    while the trigger's stream sits below its elevation level, every
    target idles at ``suspend_interval`` instead of its full
    violation-likelihood rate — the paper's SS-A state correlation.

    Args:
        trigger: fleet rank of the cheap trigger task.
        targets: guarded fleet ranks (``None`` = every other rank).
        elevation_quantile: when ``elevation_level`` is ``None``, the
            level is this quantile of the trigger's *base* (pre-overlay)
            trace — the paper's elevated-range rule, derived the same
            way selectivity thresholds are.
        elevation_level: absolute elevation level (overrides the
            quantile rule).
        suspend_interval: idle sampling interval while disarmed.
        hysteresis: relative dead band below the level before disarming.
        min_hold: minimum steps between arm/disarm transitions.
    """

    trigger: int
    targets: tuple[int, ...] | None = None
    elevation_quantile: float = 0.8
    elevation_level: float | None = None
    suspend_interval: int = 10
    hysteresis: float = 0.1
    min_hold: int = 5

    def __post_init__(self) -> None:
        _require(self.trigger >= 0,
                 f"trigger rank must be >= 0, got {self.trigger}")
        if self.targets is not None:
            object.__setattr__(self, "targets",
                               tuple(int(t) for t in self.targets))
            _require(len(self.targets) >= 1,
                     "explicit targets must be non-empty (use None for "
                     "the whole fleet)")
            _require(all(t >= 0 for t in self.targets),
                     f"target ranks must be >= 0, got {self.targets}")
            _require(self.trigger not in self.targets,
                     f"trigger rank {self.trigger} cannot guard itself")
        _require(0.0 < self.elevation_quantile < 1.0,
                 f"elevation_quantile must be in (0, 1), "
                 f"got {self.elevation_quantile}")
        # The channel parameters are the plan's, checked by its rules on
        # a placeholder pair (the compiled plans carry the real names).
        TriggerPlan(target="target", trigger="trigger",
                    elevation_level=0.0,
                    suspend_interval=self.suspend_interval,
                    hysteresis=self.hysteresis, min_hold=self.min_hold)

    def to_dict(self) -> dict[str, Any]:
        entry = {f.name: getattr(self, f.name) for f in
                 dataclass_fields(self)}
        if entry["targets"] is not None:
            entry["targets"] = list(entry["targets"])
        return entry


@dataclass(frozen=True, slots=True)
class Phase:
    """A named span of the timeline with its overlays and truth windows."""

    name: str
    duration: int
    overlays: tuple[Overlay, ...] = ()
    truth: tuple[TruthWindow, ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "phase name must be non-empty")
        _require(self.duration >= 1,
                 f"phase duration must be >= 1, got {self.duration}")
        object.__setattr__(self, "overlays", tuple(self.overlays))
        object.__setattr__(self, "truth", tuple(self.truth))
        for ov in self.overlays:
            span = ov.length if ov.length is not None \
                else self.duration - ov.start
            _require(ov.start < self.duration,
                     f"phase {self.name!r}: overlay starts at {ov.start} "
                     f"past duration {self.duration}")
            _require(ov.start + ov.spread + span <= self.duration,
                     f"phase {self.name!r}: overlay footprint "
                     f"{ov.start}+{ov.spread}+{span} exceeds duration "
                     f"{self.duration}")
        for w in self.truth:
            _require(w.start + w.spread + w.length <= self.duration,
                     f"phase {self.name!r}: truth window "
                     f"{w.start}+{w.spread}+{w.length} exceeds duration "
                     f"{self.duration}")

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "duration": self.duration,
                "overlays": [ov.to_dict() for ov in self.overlays],
                "truth": [w.to_dict() for w in self.truth]}


@dataclass(frozen=True)
class WorkloadLayer:
    """The base workload every task carries: a generator name + params.

    Generator names are resolved by the compiler's registry
    (:data:`repro.scenarios.compiler.BASE_GENERATORS`); params are passed
    to the generator constructor. The special params ``phase`` and
    ``phase_spread`` set the per-task diurnal phase offset for the
    phase-aware generators.
    """

    generator: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.generator),
                 "base generator name must be non-empty")
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"generator": self.generator, "params": dict(self.params)}


@dataclass(frozen=True, slots=True)
class ThresholdSpec:
    """How per-task thresholds are derived.

    ``absolute`` applies ``value`` to every task; ``selectivity`` derives
    each task's threshold from its own *base* (pre-overlay) trace so that
    ``value`` percent of background points violate — the paper's SV-A
    rule, which keeps Zipf-skewed fleets comparable under one spec.
    """

    kind: str = "absolute"
    value: float = 0.0

    def __post_init__(self) -> None:
        _require(self.kind in _THRESHOLD_KINDS,
                 f"unknown threshold kind {self.kind!r} "
                 f"(expected one of {_THRESHOLD_KINDS})")
        if self.kind == "selectivity":
            _require(0.0 < self.value < 100.0,
                     f"selectivity must be in (0, 100), got {self.value}")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


@dataclass(frozen=True, slots=True)
class PhaseSpan:
    """A phase's absolute position on the compiled grid (end exclusive)."""

    name: str
    start: int
    end: int


@dataclass(frozen=True)
class Timeline:
    """A complete declarative incident scenario.

    Attributes:
        name: scenario identifier (also the task-name prefix).
        description: one-line human summary.
        tasks: fleet size — number of monitoring tasks replayed.
        base: shared base workload layer.
        phases: ordered phases; durations partition the horizon exactly.
        threshold: per-task threshold derivation rule.
        err: Volley error allowance per task.
        default_interval: grid step in seconds (``Id``), metadata for
            the seconds-denominated scores.
        max_interval: Volley maximum sampling interval (``Im``).
        direction: ``"upper"`` or ``"lower"`` violation side.
        adaptation: optional overrides for
            :class:`~repro.core.adaptation.AdaptationConfig` fields.
        task_type: what each fleet task monitors — ``"value"`` (the
            scalar stream itself), ``"quantile"`` (a sketch-backed
            ``p_q(X) > T`` predicate) or ``"entropy"`` (windowed
            empirical entropy of the stream). The threshold spec applies
            to the *task-type* statistic: a raw-value threshold for
            quantile tasks (the sketch's tail boundary), an entropy
            level in bits for entropy tasks.
        task_params: substrate parameters for non-value task types
            (``quantile``/``sketch_window``/``relative_error`` or
            ``entropy_window``/``bin_width``), the same knobs the config
            schema exposes.
        triggers: declarative correlation guards
            (:class:`TriggerLink`); the replayer installs the compiled
            plans through the trigger channel before feeding.
    """

    name: str
    description: str
    tasks: int
    base: WorkloadLayer
    phases: tuple[Phase, ...]
    threshold: ThresholdSpec
    err: float = 0.01
    default_interval: float = 1.0
    max_interval: int = 10
    direction: str = "upper"
    adaptation: dict[str, Any] = field(default_factory=dict)
    task_type: str = "value"
    task_params: dict[str, Any] = field(default_factory=dict)
    triggers: tuple[TriggerLink, ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "timeline name must be non-empty")
        _require(self.tasks >= 1,
                 f"tasks must be >= 1, got {self.tasks}")
        object.__setattr__(self, "phases", tuple(self.phases))
        _require(len(self.phases) >= 1, "timeline needs at least one phase")
        names = [ph.name for ph in self.phases]
        _require(len(set(names)) == len(names),
                 f"duplicate phase names in {self.name!r}: {names}")
        _require(0.0 < self.err < 1.0,
                 f"err must be in (0, 1), got {self.err}")
        _require(self.default_interval > 0,
                 f"default_interval must be > 0, got {self.default_interval}")
        _require(self.max_interval >= 1,
                 f"max_interval must be >= 1, got {self.max_interval}")
        _require(self.direction in ("upper", "lower"),
                 f"direction must be 'upper' or 'lower', "
                 f"got {self.direction!r}")
        object.__setattr__(self, "adaptation", dict(self.adaptation))
        object.__setattr__(self, "task_params", dict(self.task_params))
        check_task_params(self.task_type, self.task_params,
                          f"timeline {self.name!r}")
        # A value timeline's ground truth is the raw stream, so its
        # tasks take no window.
        _require(self.task_type != "value" or not self.task_params,
                 f"timeline {self.name!r}: value timelines take no "
                 f"task_params, got {sorted(self.task_params)}")
        object.__setattr__(self, "triggers", tuple(self.triggers))
        for link in self.triggers:
            ranks = (link.trigger,) + (link.targets or ())
            _require(all(r < self.tasks for r in ranks),
                     f"timeline {self.name!r}: trigger link ranks "
                     f"{sorted(set(ranks))} must be < tasks={self.tasks}")

    # -- derived geometry ------------------------------------------------

    @property
    def horizon(self) -> int:
        """Total grid steps; the phase durations partition ``[0, horizon)``."""
        return sum(ph.duration for ph in self.phases)

    @property
    def direction_enum(self) -> ThresholdDirection:
        return ThresholdDirection(self.direction)

    def phase_spans(self) -> tuple[PhaseSpan, ...]:
        """Absolute ``[start, end)`` span of every phase, in order."""
        spans = []
        cursor = 0
        for ph in self.phases:
            spans.append(PhaseSpan(ph.name, cursor, cursor + ph.duration))
            cursor += ph.duration
        return tuple(spans)

    def covered(self, coverage: float) -> int:
        """Number of affected tasks for a coverage fraction (>= 1)."""
        return max(1, min(self.tasks, round(coverage * self.tasks)))

    @staticmethod
    def onset_offset(spread: int, rank: int, covered: int) -> int:
        """Deterministic onset stagger of affected rank ``rank``."""
        if spread == 0 or covered <= 1:
            return 0
        return (spread * rank) // (covered - 1)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        entry = {
            "name": self.name,
            "description": self.description,
            "tasks": self.tasks,
            "base": self.base.to_dict(),
            "phases": [ph.to_dict() for ph in self.phases],
            "threshold": self.threshold.to_dict(),
            "err": self.err,
            "default_interval": self.default_interval,
            "max_interval": self.max_interval,
            "direction": self.direction,
            "adaptation": dict(self.adaptation),
        }
        # Typed keys are emitted only for non-value timelines so existing
        # value-timeline serialisations stay byte-identical (golden pins).
        if self.task_type != "value":
            entry["task_type"] = self.task_type
            entry["task_params"] = dict(self.task_params)
        if self.triggers:
            entry["triggers"] = [link.to_dict() for link in self.triggers]
        return entry

    # -- derived timelines -----------------------------------------------

    def scaled(self, fleet: float = 1.0, horizon: float = 1.0) -> "Timeline":
        """A reduced (or enlarged) copy for CI-scale runs.

        Fleet size and every phase/overlay/window span are rescaled and
        re-clamped so the result is always a valid timeline; every other
        field is carried as it is (``dataclasses.replace``), so scaling
        by 1.0 returns an equal timeline.
        """
        _require(fleet > 0 and horizon > 0,
                 f"scale factors must be > 0, got {fleet}, {horizon}")
        tasks = max(4, round(self.tasks * fleet))
        phases = []
        for ph in self.phases:
            duration = max(4, round(ph.duration * horizon))
            overlays = []
            for ov in ph.overlays:
                start, length, spread = _fit_segment(
                    round(ov.start * horizon),
                    None if ov.length is None
                    else max(1, round(ov.length * horizon)),
                    round(ov.spread * horizon), duration)
                overlays.append(replace(
                    ov, start=start, length=length, spread=spread,
                    ramp_steps=max(1, round(ov.ramp_steps * horizon))))
            truth = []
            for w in ph.truth:
                start, length, spread = _fit_segment(
                    round(w.start * horizon),
                    max(1, round(w.length * horizon)),
                    round(w.spread * horizon), duration)
                truth.append(replace(w, start=start, length=length,
                                     spread=spread))
            phases.append(replace(ph, duration=duration,
                                  overlays=tuple(overlays),
                                  truth=tuple(truth)))
        task_params = dict(self.task_params)
        # Substrate windows are horizon-denominated state: shrink them
        # with the grid so CI-scale runs keep the same relative recency.
        if "sketch_window" in task_params:
            task_params["sketch_window"] = max(
                8, round(task_params["sketch_window"] * horizon))
        if "entropy_window" in task_params:
            task_params["entropy_window"] = max(
                4, round(task_params["entropy_window"] * horizon))
        # Trigger links survive only if their ranks still exist in the
        # rescaled fleet; explicit target lists are trimmed likewise.
        triggers = []
        for link in self.triggers:
            if link.trigger >= tasks:
                continue
            targets = link.targets
            if targets is not None:
                targets = tuple(t for t in targets if t < tasks)
                if not targets:
                    continue
            triggers.append(replace(link, targets=targets))
        return replace(self, tasks=tasks, phases=tuple(phases),
                       task_params=task_params, triggers=tuple(triggers))


def _fit_segment(start: int, length: int | None, spread: int,
                 duration: int) -> tuple[int, int | None, int]:
    """Clamp a scaled ``(start, length, spread)`` into a phase duration."""
    start = max(0, min(start, duration - 1))
    if length is None:
        return start, None, 0
    length = max(1, min(length, duration - start))
    spread = max(0, min(spread, duration - start - length))
    return start, length, spread
