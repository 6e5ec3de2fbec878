"""Scoring a replay against a scenario's ground truth.

The scorer joins what the runtime detected (per-task alert steps,
sample counts — collected over the wire or from the offline simulator)
against what the compiled timeline declares (per-task threshold
crossings and ground-truth incident windows) and emits one report per
scenario:

* **detection delay** — per declared window, grid steps from the first
  *actual* threshold crossing inside the window to the first alert in
  it. Measuring from the first crossing (not the window edge) makes a
  perfect always-sampler score exactly zero, which is what the mutation
  check pins down.
* **mis-detection rate** — the paper's point-level metric: the fraction
  of violating grid points that were never sampled, compared against
  the configured error allowance ``err``.
* **undelivered points** — a lossy replay's at-most-once feed drops
  whole chunks at the wire; no sampler saw those grid points, so they
  are scored as neither truth nor detection (not in the mis-detection
  rate, nor in a window's first crossing). The violating ones are
  counted as ``misdetection.undelivered_points``, a key a report has
  only when some were lost.
* **skewed stamps** — a clock-skew fault sends an update stamped off its
  grid step, and the server alerts at the stamp. Each alert is mapped
  back to the grid step whose delivered update carried its stamp before
  anything is scored; where several of a task's updates carried one
  stamp, the first sent is the one, since a later update at a stamp the
  sampler has seen is refused or not due. Without skew nothing moves.
* **false-alarm rate** — alerts raised outside every declared window
  (background-noise crossings), per benign grid point.
* **probe cost** — samples taken vs. the periodic-``Id`` baseline
  (sampling ratio / cost saving).

Reports contain only deterministic quantities — no wall-clock, ports or
latencies — and every float is rounded before serialisation, so
:func:`render_report` output is byte-reproducible from
``(timeline, seed)`` alone.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.scenarios.compiler import CompiledScenario
from repro.scenarios.replay import ReplayResult

__all__ = ["build_bench", "render_report", "score_scenario"]


def _round(x: float) -> float:
    return round(float(x), 9)


def _carriers(result: ReplayResult,
              n_steps: int) -> dict[int, dict[int, int]]:
    """For each task with a skewed update, the grid step whose delivered
    update carried each stamp: the first sent, where several did."""
    moved: dict[int, dict[int, int]] = {}
    for t, step, stamp in result.skewed:
        moved.setdefault(t, {})[step] = stamp
    lost = set(result.undelivered)
    carriers: dict[int, dict[int, int]] = {}
    for t, stamps in moved.items():
        carrier = carriers[t] = {}
        for step in range(n_steps):     # the order sent
            if (t, step) not in lost:
                carrier.setdefault(stamps.get(step, step), step)
    return carriers


def score_scenario(compiled: CompiledScenario,
                   result: ReplayResult) -> dict[str, Any]:
    """Score one replay; the report is a pure function of its inputs."""
    timeline = compiled.timeline
    n_steps, n_tasks = compiled.values.shape

    truth_points = 0
    undelivered_points = 0
    detected_points = 0
    false_alarms = 0
    benign_steps = 0
    delays: list[int] = []
    windows_total = len(compiled.windows)
    windows_missed = 0
    windows_undetectable = 0

    undelivered: dict[int, list[int]] = {}
    for t, step in result.undelivered:
        undelivered.setdefault(t, []).append(step)

    carriers = _carriers(result, n_steps)

    for t in range(n_tasks):
        truth = compiled.truth_indices(t)
        if t in undelivered:
            delivered = np.setdiff1d(truth, undelivered[t])
            undelivered_points += int(truth.size - delivered.size)
            truth = delivered
        alerts = np.asarray(result.alert_steps[t], dtype=int)
        if t in carriers:
            carrier = carriers[t]
            alerts = np.unique(np.asarray(
                [carrier.get(stamp, stamp) for stamp in alerts.tolist()],
                dtype=int))
        truth_points += int(truth.size)
        detected_points += int(np.intersect1d(alerts, truth,
                                              assume_unique=True).size)

        windows = compiled.windows_for(t)
        for start, end in windows:
            in_window = truth[(truth >= start) & (truth < end)]
            if in_window.size == 0:
                # The overlay never actually crossed the threshold here
                # (e.g. a night-time near-zero stream): no sampler could
                # detect it, so it is excluded from delay/miss scoring
                # but counted so nothing disappears silently.
                windows_undetectable += 1
                continue
            first_truth = int(in_window[0])
            hits = alerts[(alerts >= first_truth) & (alerts < end)]
            if hits.size == 0:
                windows_missed += 1
            else:
                delays.append(int(hits[0]) - first_truth)

        covered = np.zeros(n_steps, dtype=bool)
        for start, end in windows:
            covered[start:end] = True
        benign_steps += int(n_steps - np.count_nonzero(covered))
        if alerts.size:
            # An alert at a stamp no update carried may lie off the
            # grid; off-grid alerts are false alarms by definition.
            on_grid = alerts[(alerts >= 0) & (alerts < n_steps)]
            false_alarms += int(np.count_nonzero(~covered[on_grid]))
            false_alarms += int(alerts.size - on_grid.size)

    misdetection = (0.0 if truth_points == 0
                    else 1.0 - detected_points / truth_points)
    within_err = misdetection <= timeline.err
    samples = int(sum(result.samples))
    grid_points = n_steps * n_tasks
    sampling_ratio = samples / grid_points
    delays_sorted = sorted(delays)
    scoreable = windows_total - windows_undetectable
    detected_windows = len(delays)

    def _delay_at(q: float) -> float:
        if not delays_sorted:
            return 0.0
        index = min(len(delays_sorted) - 1,
                    max(0, int(np.ceil(q * len(delays_sorted))) - 1))
        return float(delays_sorted[index])

    mean_delay = (float(np.mean(delays_sorted)) if delays_sorted else 0.0)
    passed = bool(within_err and windows_missed == 0)

    config: dict[str, Any] = {
        "err": _round(timeline.err),
        "default_interval": _round(timeline.default_interval),
        "max_interval": timeline.max_interval,
        "direction": timeline.direction,
        "threshold": timeline.threshold.to_dict(),
    }
    # Typed keys appear only for non-value timelines so value-scenario
    # reports (and the golden-file pin) stay byte-identical.
    if timeline.task_type != "value":
        config["task_type"] = timeline.task_type
        config["task_params"] = dict(timeline.task_params)

    report: dict[str, Any] = {
        "scenario": timeline.name,
        "seed": compiled.seed,
        "mode": result.mode,
        "fleet": {"tasks": n_tasks, "steps": n_steps,
                  "grid_points": grid_points},
        "config": config,
        "phases": [{"name": s.name, "start": s.start, "end": s.end}
                   for s in compiled.spans],
        "truth": {
            "windows": windows_total,
            "undetectable_windows": windows_undetectable,
            "violation_points": truth_points + undelivered_points,
        },
        "detection": {
            "windows_scoreable": scoreable,
            "windows_detected": detected_windows,
            "windows_missed": windows_missed,
            "mean_delay_steps": _round(mean_delay),
            "p95_delay_steps": _round(_delay_at(0.95)),
            "max_delay_steps": (float(delays_sorted[-1])
                                if delays_sorted else 0.0),
            "mean_delay_seconds": _round(
                mean_delay * timeline.default_interval),
        },
        "misdetection": {
            "rate": _round(misdetection),
            "err": _round(timeline.err),
            "within_err": bool(within_err),
            "truth_points": truth_points,
            "detected_points": detected_points,
        },
        "false_alarms": {
            "alerts_outside_windows": false_alarms,
            "benign_steps": benign_steps,
            "rate": _round(false_alarms / benign_steps
                           if benign_steps else 0.0),
        },
        "cost": {
            "samples": samples,
            "grid_points": grid_points,
            "sampling_ratio": _round(sampling_ratio),
            "cost_saving": _round(1.0 - sampling_ratio),
        },
        "runtime": {
            "counters": dict(result.counters),
            "trace_events": dict(result.trace_events),
            "trace_dropped": result.trace_dropped,
            "reconnects": result.reconnects,
            "lost_updates": result.lost_updates,
            "injected": result.injected,
        },
        "passed": passed,
    }
    if undelivered_points:
        report["misdetection"]["undelivered_points"] = undelivered_points
    triggers = _score_triggers(compiled, result)
    if triggers is not None:
        report["triggers"] = triggers
    return report


def _score_triggers(compiled: CompiledScenario,
                    result: ReplayResult) -> dict[str, Any] | None:
    """Probe-saving accounting for correlation-guarded fleets.

    The guard's value proposition is entirely in *healthy* phases
    (phases that declare no ground-truth windows): a disarmed target
    idles at its suspend interval, so the guarded sub-fleet's sampling
    drops well below the full-rate baseline there. Incident-phase
    fidelity is already covered by the misdetection/delay sections.
    """
    timeline = compiled.timeline
    if not timeline.triggers or result.phase_samples is None:
        return None
    guarded = compiled.guarded_tasks()
    spans = compiled.spans
    healthy = [i for i, phase in enumerate(timeline.phases)
               if not phase.truth]
    healthy_steps = 0
    healthy_samples = 0
    for i in healthy:
        span = spans[i]
        healthy_steps += (span.end - span.start) * len(guarded)
        for t in guarded:
            before = result.phase_samples[i - 1][t] if i else 0
            healthy_samples += result.phase_samples[i][t] - before
    saving = (1.0 - healthy_samples / healthy_steps
              if healthy_steps else 0.0)
    section: dict[str, Any] = {
        "plans": len(compiled.trigger_plans()),
        "guarded_tasks": len(guarded),
        "healthy_phases": [timeline.phases[i].name for i in healthy],
        "healthy_steps": healthy_steps,
        "healthy_samples": healthy_samples,
        "healthy_saving": _round(saving),
    }
    if result.triggers is not None:
        section["runtime"] = dict(result.triggers)
    return section


def render_report(report: dict[str, Any]) -> str:
    """Canonical byte-stable serialisation (same discipline as testkit)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def build_bench(reports: list[dict[str, Any]],
                meta: dict[str, Any]) -> dict[str, Any]:
    """Assemble ``BENCH_scenarios.json`` from per-scenario reports."""
    ordered = sorted(reports, key=lambda r: r["scenario"])
    n = len(ordered)
    doc: dict[str, Any] = {"bench_scenarios_version": 1}
    doc.update(meta)
    doc["scenarios"] = ordered
    doc["totals"] = {
        "scenarios": n,
        "passed": sum(1 for r in ordered if r["passed"]),
        "failed": sum(1 for r in ordered if not r["passed"]),
        "windows": sum(r["truth"]["windows"] for r in ordered),
        "windows_missed": sum(r["detection"]["windows_missed"]
                              for r in ordered),
        "mean_misdetection": _round(
            sum(r["misdetection"]["rate"] for r in ordered) / n if n
            else 0.0),
        "mean_sampling_ratio": _round(
            sum(r["cost"]["sampling_ratio"] for r in ordered) / n if n
            else 0.0),
        "mean_cost_saving": _round(
            sum(r["cost"]["cost_saving"] for r in ordered) / n if n
            else 0.0),
    }
    doc["passed"] = all(r["passed"] for r in ordered)
    return doc
