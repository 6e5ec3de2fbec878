"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.runtime.checkpoint import state_fingerprint
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

    The scalar service steps offer by offer through ``offer``, the
    reference statement of a step; the SoA service takes each batch
    through ``offer_columns`` with the row ids captured at registration
    (so rows of removed tasks go stale, as they do on a long-lived
    connection). :meth:`offer` holds the batch accounting equal,
    :meth:`check` the resulting state.
    """

    def __init__(self, specs, register_more=None, sink=True, kinds=None):
        """``specs`` are ``(TaskSpec, AdaptationConfig)`` plain tasks,
        every other one registered with an ``on_alert`` (see
        :meth:`callback`); ``register_more(service)`` may register
        further tasks of any kind (windowed, typed, guarded, ...) on
        each service and returns their names; ``kinds``, an estimator
        name, adds :meth:`register_kinds`' tasks, each with an
        ``on_alert``. A service routes its watch edges to its own guarded
        tasks itself; with ``sink`` it then hands each to a sink that
        logs it, as a ``WorkerHost``'s routes it, and :meth:`check`
        compares them; without, edges go no further."""
        self.scalar = MonitoringService(soa=False)
        self.vector = MonitoringService(soa=True)
        self.names = [task.name for task, _ in specs]
        self.edges = {}
        self.fired = {"scalar": {}, "vector": {}}
        self.sink = sink
        for side in self.fired:
            service = getattr(self, side)
            for i, (task, config) in enumerate(specs):
                service.add_task(task.name, task, config=config,
                                 on_alert=(None if i % 2 else
                                           self.callback(side, task.name)))
            more = register_more(service) if register_more else []
            if kinds is not None:
                more += self.register_kinds(
                    service, estimator=kinds,
                    on_alert=lambda name: self.callback(side, name))
            self._wire(service)
        self.names += more
        self.rows = np.asarray([self.vector.soa_row_for(name)
                                for name in self.names], dtype=np.int64)

    def _wire(self, service):
        service.attach_telemetry(DecisionTrace(capacity=1 << 20))
        if self.sink:
            service.set_trigger_sink(
                self.edges.setdefault(id(service), []).append)

    def callback(self, side, name):
        """An ``on_alert`` for task ``name`` of the ``"scalar"`` or
        ``"vector"`` service that logs what it is handed, for
        :meth:`check` to compare per task."""
        return self.fired[side].setdefault(name, []).append

    def cross_restored(self, crossed=True):
        """A harness continuing this one's stream on services restored
        from each other's snapshot: the scalar oracle from the engine
        service's, the engine service from the oracle's (each from its
        own with ``crossed=False``), every task with a logging
        ``on_alert``."""
        other = object.__new__(type(self))
        other.names, other.sink = list(self.names), self.sink
        other.edges, other.fired = {}, {"scalar": {}, "vector": {}}
        sources = (self.vector, self.scalar)[::1 if crossed else -1]
        for side, source in zip(("scalar", "vector"), sources):
            service = MonitoringService.restore(
                json.loads(json.dumps(source.snapshot(),
                                      default=np.ndarray.tolist)),
                soa=side == "vector",
                on_alert=lambda name, alert, side=side: other.callback(
                    side, name)(alert))
            setattr(other, side, service)
            other._wire(service)
        other.rows = np.asarray([
            other.vector.soa_row_for(name)
            if name in other.vector.task_names else -1
            for name in other.names], dtype=np.int64)
        return other

    KINDS = ("window-mean", "window-sum", "window-max", "window-min",
             "quantile", "entropy", "trigger", "guarded",
             "watched-window", "guarded-quantile", "lone-trigger",
             "local-source", "local-target")

    @classmethod
    def register_kinds(cls, service, copies=2, estimator="chebyshev",
                       on_alert=None):
        """``copies`` tasks of every kind the engine holds beside plain
        ones (``KINDS``): the four window aggregates, quantile, entropy,
        a watched trigger and the task it guards (registered before and
        after each other in turn), a watched windowed task guarding a
        quantile task, a watched task whose targets live elsewhere, and
        a local ``add_trigger`` pair (registered before and after each
        other in turn; in even copies the source's watch is then
        replaced by a debounced one at another level, in odd ones the
        target is windowed). ``on_alert(name)`` gives each task its alert
        callback (default: none). Returns the names, kind by kind;
        :meth:`value_for` knows them."""
        config = AdaptationConfig(estimator=estimator, patience=2,
                                  min_samples=4, stats_restart=9)
        on_alert = on_alert or (lambda name: None)

        def plain(name, window=1, kind=AggregateKind.MEAN):
            service.add_task(name, TaskSpec(
                threshold=100.0, error_allowance=0.05, max_interval=6,
                name=name), window=window, window_kind=kind, config=config,
                on_alert=on_alert(name))

        def quantile(name):
            service.add_quantile_task(
                name, threshold=100.0, quantile=0.9, error_allowance=0.05,
                max_interval=6, sketch_window=16, config=config,
                on_alert=on_alert(name))

        names = []
        for copy in range(copies):
            made = {kind: f"{kind}-{copy}" for kind in cls.KINDS}
            for kind in (AggregateKind.MEAN, AggregateKind.SUM,
                         AggregateKind.MAX, AggregateKind.MIN):
                plain(made[f"window-{kind.value}"], window=2 + copy,
                      kind=kind)
            quantile(made["quantile"])
            service.add_entropy_task(
                made["entropy"], threshold=2.0, error_allowance=0.05,
                max_interval=6, entropy_window=12, config=config,
                on_alert=on_alert(made["entropy"]))
            pair = [made["guarded"], made["trigger"]]
            for name in pair[::-1] if copy % 2 else pair:
                plain(name)
            service.add_trigger_watch(made["trigger"], 95.0, min_hold=2)
            service.add_remote_trigger(made["guarded"], made["trigger"],
                                       95.0, suspend_interval=5)
            plain(made["watched-window"], window=3)
            quantile(made["guarded-quantile"])
            service.add_trigger_watch(made["watched-window"], 92.0,
                                      hysteresis=0.02, min_hold=0)
            service.add_remote_trigger(made["guarded-quantile"],
                                       made["watched-window"], 92.0,
                                       suspend_interval=4)
            plain(made["lone-trigger"])
            service.add_trigger_watch(made["lone-trigger"], 90.0,
                                      hysteresis=0.05, min_hold=1)
            pair = [made["local-target"], made["local-source"]]
            for name in pair[::-1] if copy % 2 else pair:
                plain(name, window=3 if copy % 2
                      and name == made["local-target"] else 1)
            service.add_trigger(made["local-target"], made["local-source"],
                                elevation_level=90.0, suspend_interval=4)
            if not copy % 2:
                service.add_trigger_watch(made["local-source"], 93.0,
                                          hysteresis=0.02, min_hold=1)
            names += made.values()
        return names

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

    def draw(self, rng, i, step):
        """:meth:`value_for` task ``i`` of :attr:`names`."""
        return self.value_for(rng, self.names[i], i, step)

    @classmethod
    def value_for(cls, rng, name, i, step):
        """A value for the task ``name`` (the ``i``-th registered),
        whatever its kind: :meth:`value` for the plain population, and
        for :meth:`register_kinds` tasks streams that keep their
        statistic near its threshold and their watchers flipping."""
        if name.startswith("x-"):
            return cls.value(rng, i, step)
        if rng.random() < 0.01:
            return float(rng.choice([np.nan, np.inf, -np.inf]))
        kind, copy = name.rsplit("-", 1)
        if kind == "window-sum":
            return float(rng.normal(100.0 / (2 + int(copy)) - 3.0, 4.0))
        if kind == "entropy" and (step // 30) % 2:
            return 90.0                       # the window collapses
        if kind == "guarded" and copy == "0":
            return float(50.0 + 0.01 * step + rng.normal(0.0, 0.5))
        if kind in ("watched-window", "lone-trigger", "local-source"):
            return float(rng.normal(90.0, 4.0))
        return float(rng.normal(90.0, 8.0))

    def offer(self, task_idx, steps, values):
        names = [self.names[i] for i in task_idx]
        applied = consumed = rejected = 0
        intervals = []
        for name, step, value in zip(names, steps, values):
            try:
                decision = self.scalar.offer(name, value, step)
            except (ConfigurationError, ValueError):
                rejected += 1
                continue
            applied += 1
            if decision is not None:
                consumed += 1
                intervals.append(decision.next_interval)
        got = self.vector.offer_columns(
            self.rows[np.asarray(task_idx, dtype=np.int64)],
            np.asarray(steps, dtype=np.int64),
            np.asarray(values, dtype=np.float64), names)
        assert got[:3] == (applied, consumed, rejected)
        assert sorted(got[3].tolist()) == sorted(intervals)

    def count_segments(self):
        """Start logging the size of every piece :attr:`vector` applies a
        column batch in (one per batch unless watch edges cut it)."""
        sizes = []
        apply_columns = self.vector._apply_columns
        self.vector._apply_columns = lambda *args: (
            sizes.append(len(args[0])) or apply_columns(*args))
        return sizes

    def offer_by_name(self, task_idx, steps, values, fast=True):
        """The same offers to both services one by one, by name:
        ``offer_fast`` or (``fast=False``) ``offer`` on an engine row."""
        for i, step, value in zip(task_idx, steps, values):
            got = []
            for service in (self.scalar, self.vector):
                call = service.offer_fast if fast else service.offer
                try:
                    got.append(call(self.names[i], value, step))
                except (ConfigurationError, ValueError) as error:
                    got.append(type(error))
            assert got[0] == got[1], (self.names[i], step, value)

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
        self.same_state(self.scalar, self.vector)
        # The watch edges each sink was handed, and the alerts each
        # task's on_alert was, in order.
        assert (self.edges.get(id(self.scalar))
                == self.edges.get(id(self.vector)))
        assert self.fired["scalar"] == self.fired["vector"]

    @staticmethod
    def alert_log(service):
        return {name: [(a.time_index, a.value, a.threshold)
                       for a in service.alerts(name)]
                for name in service.task_names}

    @staticmethod
    def task_counters(service):
        return {name: (service.samples_taken(name), service.interval(name),
                       service.next_due(name), service.observations(name))
                for name in service.task_names}

    @classmethod
    def same_state(cls, one, other):
        """Everything two services fed the same offers must agree on."""
        # By fingerprint, so that NaN state compares equal to itself and
        # -0.0 differs from 0.0, and 1 from 1.0.
        assert (state_fingerprint(one.snapshot())
                == state_fingerprint(other.snapshot()))
        assert cls.alert_log(one) == cls.alert_log(other)
        for service in (one, other):
            assert {name: service.alert_count(name)
                    for name in service.task_names} == {
                name: len(log) for name, log
                in cls.alert_log(service).items()}
        assert cls.task_counters(one) == cls.task_counters(other)
        assert cls._events(one) == cls._events(other)
        for name in one.task_names:
            assert (one.trigger_status(name)
                    == other.trigger_status(name)), name
        assert one.trigger_accounting() == other.trigger_accounting()


@pytest.fixture(scope="session")
def soa_differential():
    """The :class:`SoaDifferential` harness (a class; build per test)."""
    return SoaDifferential
