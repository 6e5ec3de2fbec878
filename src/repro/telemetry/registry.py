"""Process-wide metrics registry: counters, gauges, histogram instruments.

The registry is the write side of the telemetry subsystem. Hot paths hold
*instrument* objects (a :class:`Counter` is one float attribute; ``inc``
is one addition) and never touch the registry after creation; readers —
the ``telemetry`` wire op, the ``/metrics`` endpoint — call
:meth:`MetricsRegistry.snapshot` which walks every family once.

Two deployment modes, mirroring the chaos harness' ``NOOP_HOOK``:

* a live :class:`MetricsRegistry` (``enabled = True``) hands out real
  instruments;
* :data:`NULL_REGISTRY` (``enabled = False``) hands out shared no-op
  singletons, so un-instrumented code paths pay exactly one attribute
  check (``registry.enabled`` / ``metrics.enabled``) and nothing else.

Instruments supporting *callbacks* (``fn=...``) read their value at
snapshot time instead of being pushed — used to export state the runtime
already tracks (shard counters, queue depths, checkpoint age) without
double bookkeeping on the hot path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR, LogHistogram

__all__ = [
    "Counter",
    "Gauge",
    "HistogramInstrument",
    "MetricsFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SUMMARY_QUANTILES",
    "instrument_samplers",
]

SUMMARY_QUANTILES = (0.5, 0.9, 0.99)
"""Quantiles reported for histogram instruments in snapshots."""


class Counter:
    """Monotonically increasing value. ``inc`` is the entire hot path."""

    kind = "counter"
    enabled = True
    __slots__ = ("value", "_fn")

    def __init__(self, fn: Callable[[], float] | None = None):
        self.value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def get(self) -> float:
        """Current value (evaluates the callback for callback series)."""
        return float(self._fn()) if self._fn is not None else self.value


class Gauge:
    """A value that can go up and down (or be computed at snapshot time)."""

    kind = "gauge"
    enabled = True
    __slots__ = ("value", "_fn")

    def __init__(self, fn: Callable[[], float] | None = None):
        self.value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def get(self) -> float:
        """Current value (evaluates the callback for callback series)."""
        return float(self._fn()) if self._fn is not None else self.value


class HistogramInstrument:
    """A :class:`~repro.telemetry.histogram.LogHistogram` behind the
    instrument interface (``observe`` on the write side, summary
    quantiles on the snapshot side)."""

    kind = "histogram"
    enabled = True
    __slots__ = ("sketch",)

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR):
        self.sketch = LogHistogram(relative_error=relative_error)

    def observe(self, value: float) -> None:
        self.sketch.record(value)

    def observe_repeat(self, value: float, count: int) -> None:
        """Record ``value`` ``count`` times in one bucket update.

        The columnar apply path aggregates a whole batch's intervals with
        ``np.unique`` and records each distinct value once — identical
        sketch state to ``count`` individual :meth:`observe` calls.
        """
        self.sketch.record(value, count)

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
            fn: optional snapshot-time callback (counters/gauges only);
                only honoured when the series is first created.
        """
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label(s) {list(self.label_names)}, got {len(key)}")
        series = self._series.get(key)
        if series is None:
            series = self._make(fn) if fn is not None else self._make()
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
    """Registry of metric families; the process-wide telemetry root.

    Creating an already-registered family returns the existing one (so
    independent components can share families idempotently); re-registering
    under a different kind or label set is a configuration error.
    """

    enabled = True

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
        family = self._family(name, "counter", help, labels, Counter)
        if labels:
            return family
        return family.labels(fn=fn)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              fn: Callable[[], float] | None = None):
        """A gauge family; with no labels, the single series directly."""
        family = self._family(name, "gauge", help, labels, Gauge)
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


class _NullInstrument:
    """Shared no-op instrument: every mutator discards, ``get`` is 0."""

    enabled = False
    kind = "null"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_repeat(self, value: float, count: int) -> None:
        pass

    def labels(self, *values: Any, fn: Any = None) -> "_NullInstrument":
        return self

    def remove(self, *values: Any) -> bool:
        return False

    def get(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """No-op twin of :class:`MetricsRegistry` (the un-instrumented default).

    Every factory returns the same inert singleton, so holding and driving
    instruments is safe everywhere; code that wants to skip instrumentation
    work entirely guards with ``registry.enabled`` — one attribute check,
    mirroring the chaos harness' ``NOOP_HOOK`` contract.
    """

    enabled = False

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                fn: Callable[[], float] | None = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              fn: Callable[[], float] | None = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  relative_error: float = DEFAULT_RELATIVE_ERROR,
                  ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self) -> Iterable[MetricsFamily]:
        return ()

    def snapshot(self, raw: bool = False) -> dict[str, Any]:
        return {}


NULL_REGISTRY = NullRegistry()
"""The shared un-instrumented registry (``enabled = False``)."""


def instrument_samplers(registry: MetricsRegistry | NullRegistry) -> None:
    """Point the engine rows' process-wide sampler counters at ``registry``.

    :meth:`~repro.core.soa.SoaSamplerEngine.observe_one` and the vector
    tick guard their counter updates behind one ``enabled`` attribute
    check on a module-level metrics object (see
    ``repro.core.adaptation``). This
    swaps that object: a live registry installs real counters
    (``volley_sampler_*``), :data:`NULL_REGISTRY` restores the zero-cost
    null object. Process-wide by design — the registry is the process'
    telemetry root and samplers are created in many places.
    """
    from repro.core import adaptation

    if registry is None or not registry.enabled:
        adaptation._SAMPLER_METRICS = adaptation._NULL_SAMPLER_METRICS
        return
    # The metrics object holds plain ints the fast path increments in
    # place; the registry reads them through snapshot-time callbacks.
    # Reuse the live object across re-instrumentation so callbacks
    # captured by an earlier registry keep seeing the same counters.
    metrics = adaptation._SAMPLER_METRICS
    if not metrics.enabled:
        metrics = adaptation._SamplerMetrics()
    for name, help_text, attr in (
            ("volley_sampler_observations_total",
             "Sampling operations absorbed by the fast path",
             "observations"),
            ("volley_sampler_grow_events_total",
             "Interval additive-increase events (fast path)",
             "grow_events"),
            ("volley_sampler_reset_events_total",
             "Interval resets to the default (fast path)", "reset_events"),
            ("volley_sampler_violations_total",
             "Threshold violations observed by the fast path",
             "violations")):
        registry.counter(name, help_text,
                         fn=lambda m=metrics, a=attr: float(getattr(m, a)))
    adaptation._SAMPLER_METRICS = metrics
