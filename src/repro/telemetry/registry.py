"""Metrics registry: counters, gauges, histogram instruments.

Counters and gauges have one mode: each series is a callback (``fn=``)
read at snapshot time, over state its owner already keeps (shard
counters, queue depths, the engine rows' sampler counts, checkpoint
age), so nothing is counted twice and no hot path pays for a series.
A family's kind (``counter`` / ``gauge``) is what the exposition
declares. Histograms are the one pushed instrument: the hot path holds
the :class:`HistogramInstrument` and pushes into it, either a value at
a time (``observe``) or, for small non-negative integers such as the
sampling interval, a batch's ``np.bincount`` (``observe_counts``), which
is added to a pending count column and absorbed by the sketch only when
the sketch is read — the same sketch a record per value builds. Readers
— the ``telemetry`` wire op, the ``/metrics`` endpoint — call
:meth:`MetricsRegistry.snapshot`, which walks every family once. Each
server owns one registry; there is no un-instrumented mode.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR, LogHistogram

__all__ = [
    "CallbackSeries",
    "HistogramInstrument",
    "MetricsFamily",
    "MetricsRegistry",
    "SUMMARY_QUANTILES",
]

SUMMARY_QUANTILES = (0.5, 0.9, 0.99)
"""Quantiles reported for histogram instruments in snapshots."""

_NO_COUNTS = np.zeros(0, dtype=np.int64)


class CallbackSeries:
    """One counter or gauge series: its value is ``fn()``, read at
    snapshot time."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], float] | None = None):
        if fn is None:
            raise ConfigurationError(
                "counter and gauge series read their value off a "
                "callback: pass fn=")
        self._fn = fn

    def get(self) -> float:
        """Current value (evaluates the callback)."""
        return float(self._fn())


class HistogramInstrument:
    """A :class:`~repro.telemetry.histogram.LogHistogram` behind the
    instrument interface (``observe`` / ``observe_counts`` on the write
    side, summary quantiles on the snapshot side)."""

    kind = "histogram"
    __slots__ = ("_sketch", "_pending")

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR):
        self._sketch = LogHistogram(relative_error=relative_error)
        self._pending = _NO_COUNTS

    @property
    def sketch(self) -> LogHistogram:
        """The sketch, with every pending count absorbed first."""
        if len(self._pending):
            self._absorb()
        return self._sketch

    def _absorb(self) -> None:
        """Record value ``v`` ``pending[v]`` times, in ascending ``v``,
        and empty the pending column."""
        pending, self._pending = self._pending, _NO_COUNTS
        for value, count in enumerate(pending.tolist()):
            if count:
                self._sketch.record(value, count)

    def observe(self, value: float) -> None:
        if len(self._pending):  # so values land in the order pushed
            self._absorb()
        self._sketch.record(value)

    def observe_counts(self, counts: np.ndarray) -> None:
        """Record each value ``v`` ``counts[v]`` times (a
        ``np.bincount``), by adding ``counts`` to the pending count
        column: O(1) numpy calls, whatever the values. Counts of small
        integers sum exactly, so the sketch that absorbs them on its
        next read has the count, sum, min, max and buckets that one
        ``record(v, counts[v])`` per value per call builds."""
        pending = self._pending
        if len(counts) > len(pending):
            grown = np.zeros(len(counts), dtype=np.int64)
            grown[:len(pending)] = pending
            self._pending = pending = grown
        pending[:len(counts)] += counts

    def get(self) -> dict[str, Any]:
        """Summary view used by snapshots (count/sum/min/max/quantiles)."""
        sketch = self.sketch
        return {
            "count": sketch.count,
            "sum": sketch.total,
            "min": sketch.min,
            "max": sketch.max,
            "quantiles": sketch.quantiles(SUMMARY_QUANTILES),
        }

    def get_raw(self) -> dict[str, Any]:
        """Full mergeable sketch (``{"sketch": LogHistogram.to_dict()}``).

        Raw snapshots are what cluster workers ship to the coordinator:
        summaries cannot be combined, but the underlying sketches merge
        exactly (order-independent), so fleet-level quantiles are computed
        after the merge, never averaged from per-worker summaries.
        """
        return {"sketch": self.sketch.to_dict()}


class MetricsFamily:
    """One named metric and all its labelled series.

    Args:
        name: Prometheus-style metric name (``volley_updates_total``).
        kind: ``counter`` / ``gauge`` / ``histogram``.
        help: one-line description for the exposition format.
        label_names: label keys every series of this family carries.
        make: zero-arg factory for a new series instrument.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_make", "_series")

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Sequence[str],
                 make: Callable[..., Any]):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(str(k) for k in label_names)
        self._make = make
        self._series: dict[tuple[str, ...], Any] = {}

    def labels(self, *values: Any, fn: Callable[[], float] | None = None):
        """The series instrument for one label-value tuple (cached).

        Args:
            values: label values matching ``label_names`` positionally.
            fn: the snapshot-time callback a counter or gauge series
                reads (required when it is first created, ignored
                after); histogram series take none.
        """
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label(s) {list(self.label_names)}, got {len(key)}")
        series = self._series.get(key)
        if series is None:
            series = self._make(fn)
            self._series[key] = series
        return series

    def remove(self, *values: Any) -> bool:
        """Drop one labelled series; True if it existed.

        Used when the labelled resource itself goes away (a shard migrated
        off a worker) — the next snapshot simply no longer carries the
        series, rather than exporting a frozen stale value forever.
        """
        key = tuple(str(v) for v in values)
        return self._series.pop(key, None) is not None

    def snapshot(self, raw: bool = False) -> dict[str, Any]:
        """JSON-able view of the family and every series.

        Args:
            raw: histogram series export their full mergeable sketch
                (:meth:`HistogramInstrument.get_raw`) instead of the
                summary view — the worker→coordinator telemetry feed.
        """
        use_raw = raw and self.kind == "histogram"
        return {
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": [{"labels": list(key),
                        "value": (instrument.get_raw() if use_raw
                                  else instrument.get())}
                       for key, instrument in sorted(self._series.items())],
        }


class MetricsRegistry:
    """Registry of metric families; one server's telemetry root.

    Creating an already-registered family returns the existing one (so
    independent components can share families idempotently); re-registering
    under a different kind or label set is a configuration error.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricsFamily] = {}

    def _family(self, name: str, kind: str, help: str,
                labels: Sequence[str],
                make: Callable[..., Any]) -> MetricsFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{family.kind} with labels "
                    f"{list(family.label_names)}")
            return family
        family = MetricsFamily(name, kind, help, labels, make)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                fn: Callable[[], float] | None = None):
        """A counter family; with no labels, the single series directly."""
        family = self._family(name, "counter", help, labels, CallbackSeries)
        if labels:
            return family
        return family.labels(fn=fn)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              fn: Callable[[], float] | None = None):
        """A gauge family; with no labels, the single series directly."""
        family = self._family(name, "gauge", help, labels, CallbackSeries)
        if labels:
            return family
        return family.labels(fn=fn)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  relative_error: float = DEFAULT_RELATIVE_ERROR):
        """A histogram family; with no labels, the single series directly."""
        def make(fn: Callable[[], float] | None = None,
                 _alpha: float = relative_error) -> HistogramInstrument:
            if fn is not None:
                raise ConfigurationError(
                    "histogram series do not support callbacks")
            return HistogramInstrument(relative_error=_alpha)

        family = self._family(name, "histogram", help, labels, make)
        if labels:
            return family
        return family.labels()

    def families(self) -> Iterable[MetricsFamily]:
        """Registered families in registration order."""
        return self._families.values()

    def snapshot(self, raw: bool = False) -> dict[str, Any]:
        """One JSON-able dict covering every family and series.

        This is the payload of the ``telemetry`` wire op and the input of
        :func:`repro.telemetry.exposition.render_prometheus`. Callback
        series are evaluated here, on the reader's dime — the hot path
        never pays for them. With ``raw=True`` histogram series carry
        their mergeable sketches instead of summaries (what cluster
        workers send the coordinator for fleet-level merging).
        """
        return {name: family.snapshot(raw=raw)
                for name, family in self._families.items()}
