"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.experiments.bench_soa import _alert_log, _task_counters
from repro.service import MonitoringService
from repro.telemetry.trace import DecisionTrace
from repro.types import ThresholdDirection


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator so tests are deterministic."""
    return np.random.default_rng(12345)


@pytest.fixture
def quiet_trace(rng: np.random.Generator) -> np.ndarray:
    """A stable low-noise stream far below any interesting threshold."""
    return 10.0 + rng.normal(0.0, 0.5, 5000)


@pytest.fixture
def bursty_trace(rng: np.random.Generator) -> np.ndarray:
    """A quiet stream with two pronounced excursions above 100."""
    values = 10.0 + rng.normal(0.0, 0.5, 5000)
    for start in (1500, 3500):
        ramp = np.linspace(0.0, 1.0, 20)
        shape = np.concatenate([ramp, np.ones(30), ramp[::-1]])
        shape = shape * (150.0 + rng.normal(0.0, 2.0, shape.size))
        values[start:start + shape.size] = np.maximum(
            values[start:start + shape.size], shape)
    return values


@pytest.fixture
def simple_task() -> TaskSpec:
    """A generic upper-threshold task used across tests."""
    return TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=10)


class SoaDifferential:
    """A scalar and an SoA-backed service fed the same offers.

    The scalar service steps offer by offer through ``offer_fast``; the
    SoA service takes each batch through ``offer_columns`` with the row
    ids captured at registration (so rows of removed or evicted tasks go
    stale, as they do on a long-lived connection). :meth:`offer` holds
    the batch accounting equal, :meth:`check` the resulting state.
    """

    def __init__(self, specs, register_more=None):
        """``specs`` are ``(TaskSpec, AdaptationConfig)`` plain tasks;
        ``register_more(service)`` may register further tasks of any kind
        (windowed, typed, ...) on each service and returns their names."""
        self.scalar = MonitoringService(soa=False)
        self.vector = MonitoringService(soa=True)
        self.names = [task.name for task, _ in specs]
        for service in (self.scalar, self.vector):
            for task, config in specs:
                service.add_task(task.name, task, config=config)
            more = register_more(service) if register_more else []
            service.attach_telemetry(DecisionTrace(capacity=1 << 20))
        self.names += more
        self.rows = np.asarray([self.vector.soa_row_for(name)
                                for name in self.names], dtype=np.int64)

    @staticmethod
    def population(tasks, estimator, stats_restart=9):
        """Tasks that between them reach every branch of a tick: a short
        restart period (restarts, stale serving), quick growth (intervals
        1 to max_interval side by side), zero-allowance rows,
        lower-threshold rows, and — with ``"mixed"`` — both estimators in
        one engine."""
        specs = []
        for i in range(tasks):
            config = AdaptationConfig(
                estimator=(("chebyshev", "gaussian")[i % 2]
                           if estimator == "mixed" else estimator),
                patience=2, min_samples=4, stats_restart=stats_restart)
            lower = i % 7 == 3
            specs.append((TaskSpec(
                threshold=-100.0 if lower else 100.0,
                error_allowance=0.0 if i % 11 == 5 else 0.05,
                max_interval=6,
                direction=(ThresholdDirection.LOWER if lower
                           else ThresholdDirection.UPPER),
                name=f"x-{i:03d}"), config))
        return specs

    @staticmethod
    def value(rng, task, step):
        """Per-task value model matching :meth:`population`: flat (zero
        std), quiet, or near-threshold noise; now and then a NaN or an
        infinity."""
        if rng.random() < 0.01:
            return float(rng.choice([np.nan, np.inf, -np.inf]))
        if task % 5 == 0:
            value = 40.0 + task
        elif task % 5 in (1, 2):
            value = 50.0 + 0.01 * step + rng.normal(0.0, 0.5)
        else:
            value = rng.normal(90.0, 8.0)
        return float(-value if task % 7 == 3 else value)

    def offer(self, task_idx, steps, values):
        names = [self.names[i] for i in task_idx]
        applied = consumed = rejected = 0
        intervals = []
        for name, step, value in zip(names, steps, values):
            try:
                interval = self.scalar.offer_fast(name, value, step)
            except (ConfigurationError, ValueError):
                rejected += 1
                continue
            applied += 1
            if interval is not None:
                consumed += 1
                intervals.append(interval)
        got = self.vector.offer_columns(
            self.rows[np.asarray(task_idx, dtype=np.int64)],
            np.asarray(steps, dtype=np.int64),
            np.asarray(values, dtype=np.float64), names)
        assert got[:3] == (applied, consumed, rejected)
        assert sorted(got[3].tolist()) == sorted(intervals)

    @staticmethod
    def _events(service):
        """Per-task trace-event sequences (arrival order within a task)."""
        by_task = {}
        for event in service._trace.drain():
            fields = {key: value for key, value in event.items()
                      if key not in ("seq", "ts_monotonic", "task")}
            by_task.setdefault(event["task"], []).append(fields)
        return by_task

    def check(self):
        scalar, vector = self.scalar, self.vector
        # Serialised, so that NaN state compares equal to itself and
        # -0.0 differs from 0.0, as in the checkpoint fingerprint.
        assert (json.dumps(scalar.snapshot(), sort_keys=True)
                == json.dumps(vector.snapshot(), sort_keys=True))
        assert _alert_log(scalar) == _alert_log(vector)
        assert _task_counters(scalar) == _task_counters(vector)
        assert self._events(scalar) == self._events(vector)


@pytest.fixture(scope="session")
def soa_differential():
    """The :class:`SoaDifferential` harness (a class; build per test)."""
    return SoaDifferential
