"""Telemetry subsystem: metrics, sketches, exposition, tracing (S29).

The observability layer for the live runtime and the sampling core:

* :mod:`repro.telemetry.registry` — the
  :class:`~repro.telemetry.registry.MetricsRegistry` of counter / gauge /
  histogram instruments with label support; each server owns one, and
  so does each cluster worker's host;
* :mod:`repro.telemetry.histogram` — the mergeable log-bucketed
  :class:`~repro.telemetry.histogram.LogHistogram` quantile sketch
  (DDSketch-style relative-error bound) behind every latency / size /
  interval distribution;
* :mod:`repro.telemetry.exposition` — Prometheus text rendering and the
  asyncio ``/metrics`` + ``/healthz`` + ``/trace`` HTTP endpoint;
* :mod:`repro.telemetry.trace` — the bounded
  :class:`~repro.telemetry.trace.DecisionTrace` ring buffer of structured
  sampler/coordinator decisions, drainable over the wire;
* :mod:`repro.telemetry.selfmon` — the
  :class:`~repro.telemetry.selfmon.SelfMonitor` loop registering the
  runtime's own health gauges as Volley monitoring tasks.

Quickstart against a running server (``--http-port``)::

    curl -s localhost:9464/metrics | grep volley_offer_latency
    curl -s localhost:9464/trace | tail

In-process::

    from repro.telemetry import MetricsRegistry, render_prometheus
    served = {"requests": 0}
    registry = MetricsRegistry()
    registry.counter("hits_total", "requests served",
                     fn=lambda: served["requests"])
    served["requests"] += 1
    print(render_prometheus(registry.snapshot()))
"""

from repro.telemetry.exposition import (CONTENT_TYPE_PROMETHEUS,
                                        TelemetryHTTPServer,
                                        render_prometheus)
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.registry import (CallbackSeries, HistogramInstrument,
                                      MetricsFamily, MetricsRegistry,
                                      SUMMARY_QUANTILES)
from repro.telemetry.selfmon import SELF_SHARD, SelfMonitor
from repro.telemetry.trace import (DECISION_BLOCK, DecisionTrace,
                                   TRACE_EVENT_KINDS)

__all__ = [
    "CONTENT_TYPE_PROMETHEUS",
    "CallbackSeries",
    "DECISION_BLOCK",
    "DecisionTrace",
    "HistogramInstrument",
    "LogHistogram",
    "MetricsFamily",
    "MetricsRegistry",
    "SELF_SHARD",
    "SUMMARY_QUANTILES",
    "SelfMonitor",
    "TRACE_EVENT_KINDS",
    "TelemetryHTTPServer",
    "render_prometheus",
]
