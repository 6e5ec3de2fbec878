"""Lowering timelines into concrete per-task trace streams.

:func:`compile_timeline` turns a ``(seed, timeline)`` pair into a
:class:`CompiledScenario`: a dense ``(horizon, tasks)`` value matrix, a
per-task threshold vector, absolute phase spans, and the absolute
ground-truth windows per task. Every random draw comes from a
:func:`repro.workloads.substream` keyed by the seed, the timeline name
and the entity (task rank, overlay), so compilation is a pure function
of its inputs: order of evaluation, fleet size changes elsewhere, or
process boundaries never reshuffle a stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.accuracy import truth_alert_indices
from repro.core.substrates import (DEFAULT_ENTROPY_WINDOW,
                                   DEFAULT_SKETCH_WINDOW, EntropyEstimator,
                                   QuantileEstimator)
from repro.exceptions import ConfigurationError
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR
from repro.scenarios.timeline import Overlay, PhaseSpan, Timeline
from repro.triggers.plan import TriggerPlan
from repro.workloads.base import substream
from repro.workloads.synthetic import (AR1Generator, DiurnalGenerator,
                                       RandomWalkGenerator,
                                       SpikeTrainGenerator)
from repro.workloads.thresholds import threshold_for_selectivity
from repro.workloads.traffic import TrafficDifferenceGenerator
from repro.workloads.weblogs import WebWorkloadGenerator

__all__ = ["BASE_GENERATORS", "CompiledScenario", "GroundTruth",
           "compile_timeline"]

BASE_GENERATORS = ("traffic", "weblogs", "ar1", "random_walk", "diurnal",
                   "spikes")
"""Base-layer generator names the compiler can resolve."""

_PHASE_AWARE = ("traffic", "weblogs", "diurnal")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """One task's declared violation window on the absolute grid."""

    task: int
    start: int
    end: int  # exclusive


class CompiledScenario:
    """A timeline lowered onto the grid, ready to replay and score."""

    __slots__ = ("timeline", "seed", "values", "thresholds", "spans",
                 "windows", "task_names", "trigger_levels", "_monitored")

    def __init__(self, timeline: Timeline, seed: int, values: np.ndarray,
                 thresholds: np.ndarray, spans: tuple[PhaseSpan, ...],
                 windows: tuple[GroundTruth, ...],
                 trigger_levels: tuple[float, ...] = ()):
        self.timeline = timeline
        self.seed = int(seed)
        self.values = values
        self.thresholds = thresholds
        self.spans = spans
        self.windows = windows
        self.task_names = [f"{timeline.name}-{i:05d}"
                           for i in range(timeline.tasks)]
        self.trigger_levels = trigger_levels
        self._monitored: dict[int, np.ndarray] = {}

    @property
    def n_steps(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_tasks(self) -> int:
        return int(self.values.shape[1])

    def sampler_threshold(self, task: int) -> float:
        """The threshold on the *monitored* statistic for ``task``.

        For value and entropy timelines this is the compiled per-task
        threshold itself. For quantile timelines the monitored statistic
        is the exceedance rate ``P(X > T)`` and the predicate
        ``p_q(X) > T`` becomes ``exceedance > 1 - q`` — the derived
        Bernoulli threshold the sampler actually watches.
        """
        if self.timeline.task_type == "quantile":
            return 1.0 - float(self.timeline.task_params["quantile"])
        return float(self.thresholds[task])

    def monitored_column(self, task: int) -> np.ndarray:
        """Full-resolution monitored statistic for ``task`` (cached).

        For value timelines this is the raw stream. For typed timelines
        the column is produced by the *same* substrate the service runs —
        updates are pushed at every grid step in replay, so a full-rate
        substrate pass here is the exact ground-truth twin of the live
        task's internal state.
        """
        if self.timeline.task_type == "value":
            return self.values[:, task]
        cached = self._monitored.get(task)
        if cached is None:
            cached = _substrate_column(self.timeline,
                                       self.values[:, task],
                                       float(self.thresholds[task]))
            self._monitored[task] = cached
        return cached

    def truth_indices(self, task: int) -> np.ndarray:
        """Grid points where ``task`` violates its threshold (sorted).

        Truth is defined on the monitored statistic: raw values for
        value timelines, the substrate-derived exceedance/entropy trace
        (against the derived sampler threshold) for typed ones.
        """
        return truth_alert_indices(self.monitored_column(task),
                                   self.sampler_threshold(task),
                                   self.timeline.direction_enum)

    def windows_for(self, task: int) -> list[tuple[int, int]]:
        """This task's ground-truth windows as ``(start, end)`` pairs."""
        return [(w.start, w.end) for w in self.windows if w.task == task]

    def trigger_plans(self) -> list[TriggerPlan]:
        """The timeline's trigger links as concrete installable plans.

        Each fleet-level :class:`~repro.scenarios.timeline.TriggerLink`
        expands into one :class:`~repro.triggers.plan.TriggerPlan` per
        guarded rank, with the compiled elevation level (quantile-derived
        levels were resolved against the pre-overlay base at compile
        time, like selectivity thresholds).
        """
        plans: list[TriggerPlan] = []
        for li, link in enumerate(self.timeline.triggers):
            targets = (link.targets if link.targets is not None
                       else tuple(t for t in range(self.n_tasks)
                                  if t != link.trigger))
            for t in targets:
                plans.append(TriggerPlan(
                    target=self.task_names[t],
                    trigger=self.task_names[link.trigger],
                    elevation_level=float(self.trigger_levels[li]),
                    suspend_interval=link.suspend_interval,
                    hysteresis=link.hysteresis,
                    min_hold=link.min_hold))
        return plans

    def guarded_tasks(self) -> list[int]:
        """Fleet ranks guarded by at least one trigger link (sorted)."""
        rank = {name: t for t, name in enumerate(self.task_names)}
        return sorted({rank[plan.target] for plan in self.trigger_plans()})

    def service_config(self) -> dict[str, Any]:
        """The fleet as a service-config root, the one both replays
        start from: :func:`~repro.config.service_from_config` reads it
        offline, and either server takes it as ``service_config``.

        Every task entry is complete (there is no ``defaults`` section),
        with a typed timeline's ``type`` and parameter keys, so
        registration derives the sampler-facing spec (e.g. the 1 - q
        exceedance threshold) as it would for any config.
        :meth:`trigger_plans` ride along as ``trigger_plans`` dicts.
        """
        timeline = self.timeline
        typed: dict[str, Any] = {}
        if timeline.task_type != "value":
            typed = {"type": timeline.task_type, **timeline.task_params}
        tasks = [{"name": name, "threshold": float(self.thresholds[t]),
                  "error_allowance": timeline.err,
                  "default_interval": timeline.default_interval,
                  "max_interval": timeline.max_interval,
                  "direction": timeline.direction, **typed}
                 for t, name in enumerate(self.task_names)]
        return {"tasks": tasks,
                "trigger_plans": [plan.to_dict()
                                  for plan in self.trigger_plans()]}


def compile_timeline(timeline: Timeline, seed: int) -> CompiledScenario:
    """Lower a timeline into per-task streams; pure in ``(seed, timeline)``."""
    n_steps = timeline.horizon
    n_tasks = timeline.tasks
    spans = timeline.phase_spans()

    base = np.empty((n_steps, n_tasks), dtype=float)
    for t in range(n_tasks):
        rng = substream(seed, "scenario", timeline.name, "base", t)
        base[:, t] = _base_column(timeline, t, n_steps, rng)

    thresholds = _thresholds(timeline, base)
    # Quantile-derived elevation levels come from the pre-overlay base,
    # like selectivity thresholds: the "elevated range" is defined
    # against background behaviour, not against the incident itself.
    trigger_levels = tuple(
        float(link.elevation_level) if link.elevation_level is not None
        else float(np.quantile(base[:, link.trigger],
                               link.elevation_quantile))
        for link in timeline.triggers)

    values = base  # overlays applied in place; base percentiles are done
    for pi, (phase, span) in enumerate(zip(timeline.phases, spans)):
        for oi, ov in enumerate(phase.overlays):
            covered = timeline.covered(ov.coverage)
            length = ov.length if ov.length is not None \
                else phase.duration - ov.start
            profile = _profile(ov, length)
            for rank in range(covered):
                offset = Timeline.onset_offset(ov.spread, rank, covered)
                lo = span.start + ov.start + offset
                shaped = profile
                if ov.jitter > 0.0:
                    jrng = substream(seed, "scenario", timeline.name,
                                     "overlay", pi, oi, rank)
                    shaped = profile * jrng.normal(1.0, ov.jitter, length)
                seg = values[lo:lo + length, rank]
                if ov.kind == "scale":
                    seg *= shaped
                elif ov.kind == "entropy_shift":
                    np.subtract(seg, shaped, out=seg)
                    np.maximum(seg, ov.floor, out=seg)
                else:
                    seg += shaped

    windows = []
    for phase, span in zip(timeline.phases, spans):
        for w in phase.truth:
            covered = timeline.covered(w.coverage)
            for rank in range(covered):
                offset = Timeline.onset_offset(w.spread, rank, covered)
                lo = span.start + w.start + offset
                windows.append(GroundTruth(rank, lo, lo + w.length))
    windows.sort(key=lambda w: (w.task, w.start, w.end))

    return CompiledScenario(timeline, seed, values, thresholds, spans,
                            tuple(windows), trigger_levels)


def _substrate_column(timeline: Timeline, values: np.ndarray,
                      threshold: float) -> np.ndarray:
    """Run a task-type substrate over one full-resolution column."""
    params = timeline.task_params
    n = len(values)
    out = np.empty(n, dtype=float)
    if timeline.task_type == "quantile":
        est = QuantileEstimator(
            float(params["quantile"]),
            window=int(params.get("sketch_window", DEFAULT_SKETCH_WINDOW)),
            relative_error=float(params.get("relative_error",
                                            DEFAULT_RELATIVE_ERROR)))
        for i in range(n):
            est.update(float(values[i]))
            out[i] = est.exceedance(threshold)
        return out
    est = EntropyEstimator(
        window=int(params.get("entropy_window", DEFAULT_ENTROPY_WINDOW)),
        bin_width=float(params.get("bin_width", 1.0)))
    for i in range(n):
        est.update(float(values[i]))
        out[i] = est.entropy()
    return out


def _base_column(timeline: Timeline, task: int, n_steps: int,
                 rng: np.random.Generator) -> np.ndarray:
    """One task's base stream (pre-overlay)."""
    layer = timeline.base
    params = dict(layer.params)
    kind = layer.generator
    phase_spread = float(params.pop("phase_spread", 0.0))
    phase = (float(params.pop("phase", 0.0))
             + phase_spread * task / timeline.tasks) % 1.0
    if kind not in BASE_GENERATORS:
        raise ConfigurationError(
            f"unknown base generator {kind!r} "
            f"(expected one of {BASE_GENERATORS})")
    if kind not in _PHASE_AWARE and (phase_spread or phase):
        raise ConfigurationError(
            f"base generator {kind!r} takes no phase/phase_spread")
    try:
        if kind == "traffic":
            return TrafficDifferenceGenerator(
                phase=phase, **params).generate(n_steps, rng)
        if kind == "weblogs":
            gen = WebWorkloadGenerator(**params)
            rank = task % gen.num_objects
            return gen.access_rate_trace(rank, n_steps, rng,
                                         phase=phase).values
        if kind == "ar1":
            return AR1Generator(**params).generate(n_steps, rng)
        if kind == "random_walk":
            return RandomWalkGenerator(**params).generate(n_steps, rng)
        if kind == "diurnal":
            return DiurnalGenerator(phase=phase,
                                    **params).generate(n_steps, rng)
        return SpikeTrainGenerator(**params).generate(n_steps, rng)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad params for base generator {kind!r}: {exc}") from exc


def _thresholds(timeline: Timeline, base: np.ndarray) -> np.ndarray:
    spec = timeline.threshold
    n_tasks = base.shape[1]
    if spec.kind == "absolute":
        return np.full(n_tasks, float(spec.value))
    return np.array([
        threshold_for_selectivity(base[:, t], spec.value,
                                  timeline.direction_enum)
        for t in range(n_tasks)])


def _profile(ov: Overlay, length: int) -> np.ndarray:
    """The overlay's magnitude profile over its footprint."""
    if ov.kind == "ramp":
        return ov.peak * np.arange(1, length + 1, dtype=float) / length
    if ov.kind == "decay":
        return ov.peak * np.arange(length, 0, -1, dtype=float) / length
    if ov.kind == "step":
        return np.full(length, float(ov.peak))
    if ov.kind == "scale":
        return np.full(length, float(ov.peak))
    # spike / entropy_shift: ramp up, hold, ramp down (SYN-flood shape).
    ramp = min(ov.ramp_steps, max(1, length // 2))
    up = ov.peak * np.arange(1, ramp + 1, dtype=float) / ramp
    hold = max(0, length - 2 * ramp)
    shape = np.concatenate([up, np.full(hold, float(ov.peak)), up[::-1]])
    return shape[:length]
