"""Fleet-level telemetry: merging per-worker registries at the coordinator.

Workers export *raw* registry snapshots (``registry.snapshot(raw=True)``):
counters and gauges as plain values, histograms as full mergeable
:class:`~repro.telemetry.histogram.LogHistogram` sketches. This module
folds those into one snapshot shaped exactly like a single registry's
summary snapshot, so :func:`repro.telemetry.exposition.render_prometheus`
serves a fleet ``/metrics`` with no special cases:

* counter/gauge series gain a leading ``worker`` label (per-worker series
  stay distinguishable; Prometheus-side ``sum by ()`` gives fleet totals,
  and a client that sums a family's series, as the loadgen's ACK ledger
  does, reads a fleet exactly as it reads one server);
* histogram series are **merged sketch-first** — quantiles are computed
  from the combined sketch, never averaged across workers (averaging
  per-worker p99s is the classic fleet-monitoring mistake; the mergeable
  sketch is the whole reason PR 5 chose a DDSketch-style histogram);
* the coordinator's own families (router counters, ``worker_up``,
  migration/replacement totals) pass through, and series whose family
  and label shape match a merged family (e.g. the router's
  ``volley_updates_shed_total{worker="router"}``) are appended to it.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.telemetry.histogram import LogHistogram
from repro.telemetry.registry import SUMMARY_QUANTILES

__all__ = ["merge_fleet_snapshots"]


def _summary(sketch: LogHistogram) -> dict[str, Any]:
    return {
        "count": sketch.count,
        "sum": sketch.total,
        "min": sketch.min,
        "max": sketch.max,
        "quantiles": sketch.quantiles(SUMMARY_QUANTILES),
    }


def merge_fleet_snapshots(
        worker_snapshots: Mapping[str, Mapping[str, Any]],
        base: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Fold raw per-worker snapshots (plus the coordinator's own summary
    snapshot) into one fleet snapshot.

    Args:
        worker_snapshots: ``{worker_id: registry.snapshot(raw=True)}``.
        base: the coordinator registry's ordinary (summary) snapshot;
            its families pass through, appended to merged families when
            the label shape matches.
    """
    merged: dict[str, dict[str, Any]] = {}
    sketches: dict[str, LogHistogram] = {}
    for worker_id in sorted(worker_snapshots):
        snapshot = worker_snapshots[worker_id]
        for name, family in snapshot.items():
            kind = str(family.get("kind", ""))
            if kind == "histogram":
                entry = merged.setdefault(name, {
                    "kind": "histogram",
                    "help": str(family.get("help", "")),
                    "label_names": [],
                    "series": [],
                })
                for series in family.get("series", ()):
                    value = series.get("value") or {}
                    raw = value.get("sketch")
                    if raw is None:
                        continue  # summary-form series cannot merge
                    sketch = LogHistogram.from_dict(raw)
                    if name in sketches:
                        sketches[name].merge(sketch)
                    else:
                        sketches[name] = sketch
            else:
                labels = ["worker"] + [str(n) for n in
                                       family.get("label_names", ())]
                entry = merged.setdefault(name, {
                    "kind": kind,
                    "help": str(family.get("help", "")),
                    "label_names": labels,
                    "series": [],
                })
                for series in family.get("series", ()):
                    entry["series"].append({
                        "labels": [worker_id] + [str(v) for v in
                                                 series.get("labels", ())],
                        "value": series.get("value", 0.0),
                    })
    for name, entry in merged.items():
        if entry["kind"] == "histogram":
            sketch = sketches.get(name, LogHistogram())
            entry["series"] = [{"labels": [], "value": _summary(sketch)}]
    if base:
        for name, family in base.items():
            entry = merged.get(name)
            if entry is None:
                merged[name] = {
                    "kind": family.get("kind"),
                    "help": family.get("help", ""),
                    "label_names": list(family.get("label_names", ())),
                    "series": [dict(s) for s in family.get("series", ())],
                }
            elif (list(family.get("label_names", ()))
                  == list(entry["label_names"])):
                entry["series"].extend(dict(s) for s
                                       in family.get("series", ()))
    return merged
