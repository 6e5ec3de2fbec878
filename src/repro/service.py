"""Streaming monitoring service facade.

The experiment runners consume precomputed traces; a deployment consumes
*live* values. :class:`MonitoringService` is the push-based entry point a
downstream user wires into their collection pipeline:

* register tasks (instantaneous or windowed-aggregate, upper or lower
  thresholds, optionally guarded by a correlation trigger — plus the
  sketch-backed quantile-threshold and streaming-entropy types, see
  :meth:`MonitoringService.add_quantile_task` /
  :meth:`MonitoringService.add_entropy_task`);
* push every collected value with :meth:`offer` — the service tells the
  caller whether the value was *consumed* as a scheduled sample and when
  the task wants its next sample, so callers can skip collection work for
  values the schedule does not need;
* receive alert callbacks the moment a sampled value violates.

The service is the integration surface: everything underneath is the same
violation-likelihood machinery the experiments use.

Example::

    service = MonitoringService()
    service.add_task("ddos", TaskSpec(threshold=1000.0,
                                      error_allowance=0.01,
                                      max_interval=10),
                     on_alert=lambda a: print("ALERT", a))
    for step, rho in enumerate(stream):
        if service.due("ddos", step):
            service.offer("ddos", rho, step)   # costed sampling op
"""

from __future__ import annotations

import logging
from collections import deque
from functools import partial
from itertools import repeat
from dataclasses import dataclass, field, fields as dataclass_fields
from math import isfinite
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.adaptation import (AdaptationConfig, SamplingDecision,
                                   ViolationLikelihoodSampler)
from repro.core.soa import (SAMPLER_STATE, STEP_MAX, STEP_MIN,
                            ColumnBatchResult, SoaSamplerEngine,
                            sampler_state_columns, sampler_state_dict)
from repro.core.substrates import (DEFAULT_ENTROPY_WINDOW,
                                   DEFAULT_SKETCH_WINDOW, EntropyEstimator,
                                   QuantileEstimator)
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR
from repro.telemetry.trace import DECISION_BLOCK
from repro.exceptions import ConfigurationError
from repro.triggers.channel import TriggerWatcher
from repro.triggers.plan import TriggerPlan
from repro.types import Alert, ThresholdDirection

__all__ = ["MonitoringService", "TaskState", "SNAPSHOT_VERSION",
           "snapshot_task_names"]

logger = logging.getLogger(__name__)

AlertCallback = Callable[[Alert], None]

SNAPSHOT_VERSION = 3
"""Format version stamped into :meth:`MonitoringService.snapshot` dicts:
3 is the columnar document with one kind of trigger gate, and the only
version :meth:`MonitoringService.restore` reads (DESIGN.md S31 "one
reader"). Not the checkpoint *file* format's
(:data:`repro.runtime.checkpoint.CHECKPOINT_VERSION`)."""


@dataclass
class TaskState:
    """Bookkeeping for one registered task.

    Attributes:
        name: task identifier.
        task: the threshold task.
        config: the task's adaptation tunables.
        sampler: the adaptive sampler driving the schedule — on a scalar
            service; ``None`` on an engine service, whose row is it.
        next_due: grid step of the next wanted sample.
        samples_taken: sampling operations consumed so far.
        alerts: alerts raised so far — on a scalar service; an engine
            service keeps every task's in its one columnar log.
        trigger_level: elevation level of the gating metric.
        suspend_interval: idle interval while the guard is disarmed.
        remote_trigger: name of the task whose arm/disarm edges gate
            this one through the trigger channel (``repro.triggers``),
            or ``None``. The gating signal is the explicit
            :attr:`trigger_armed` flag — the trigger may live on this
            service, on another shard or on another worker.
        trigger_armed: the guard's state; ``True`` (the
            conservative default) samples at full violation-likelihood
            rate, ``False`` floors the interval at
            :attr:`suspend_interval`.
        trigger_suspensions: consumed offers whose schedule the disarmed
            guard actually deferred (probe-cost-saved accounting).
        watch: a :class:`~repro.triggers.channel.TriggerWatcher`
            attached to this task's offered-value stream, emitting the
            arm/disarm edges the channel routes; ``None`` when the task
            guards nothing.
        window / window_kind: aggregation settings (window 1 = instant).
        on_alert: callback invoked on every alert.
        soa_row: the task's row in the service's SoA engine, from
            registration to removal, or ``-1`` on a scalar service. The
            row is the one home of sampler state, schedule position,
            suspension and alert counts, and keys
            the task's entries in the service's alert log:
            :attr:`sampler`, :attr:`next_due`, :attr:`samples_taken`,
            :attr:`trigger_suspensions` and :attr:`alerts` are a scalar
            service's. Window
            buffer, substrate, watcher and armed flag stay here either
            way.
        task_type: ``"value"`` (scalar, the default), ``"quantile"`` or
            ``"entropy"``. Non-value tasks carry a ``substrate`` whose
            derived statistic — exceedance rate / windowed entropy — is
            what the sampler watches, on an engine row as much as on the
            scalar path.
        value_threshold: quantile tasks only — the raw value threshold
            ``T`` of ``p_q(X) > T``; the sampler's spec threshold is the
            derived exceedance bound ``1 - q``.
        substrate: the per-task sketch/estimator state, or ``None``.
    """

    name: str
    task: TaskSpec
    config: AdaptationConfig
    sampler: ViolationLikelihoodSampler | None = None
    soa_row: int = -1
    next_due: int = 0
    samples_taken: int = 0
    alerts: list[Alert] = field(default_factory=list)
    trigger_level: float = 0.0
    suspend_interval: int = 10
    remote_trigger: str | None = None
    trigger_armed: bool = True
    trigger_suspensions: int = 0
    watch: TriggerWatcher | None = None
    window: int = 1
    window_kind: AggregateKind = AggregateKind.MEAN
    on_alert: AlertCallback | None = None
    task_type: str = "value"
    value_threshold: float = 0.0
    substrate: Any = None
    _window_values: deque[tuple[int, float]] = field(default_factory=deque)
    _window_sum: float = 0.0

    def aggregate(self, step: int, value: float) -> float:
        """Fold a raw observation into the task's windowed aggregate.

        The window buffer is a deque with head-pruning and a running sum:
        appending and evicting expired entries is O(1) amortized, so
        windowed tasks stay cheap on the hot ingest path (MAX/MIN still
        scan the — window-bounded — buffer, as eviction order is by step,
        not by value).
        """
        if self.window <= 1:
            return value
        buf = self._window_values
        buf.append((step, value))
        self._window_sum += value
        lo = step - self.window + 1
        while buf and buf[0][0] < lo:
            _, old = buf.popleft()
            self._window_sum -= old
        if self.window_kind is AggregateKind.MEAN:
            return self._window_sum / len(buf)
        if self.window_kind is AggregateKind.SUM:
            return self._window_sum
        if self.window_kind is AggregateKind.MAX:
            return max(v for _, v in buf)
        return min(v for _, v in buf)

    def absorb(self, value: float) -> None:
        """Feed one offered value into a non-value task's substrate.

        Sketch/entropy substrates absorb *every* offered value, due or
        not: in the push model updates arrive regardless, and what the
        schedule gates is the (costed) evaluation of the derived
        statistic. This keeps the substrate's state equal to a
        full-resolution reference's, so the sampler's mis-detection
        story reduces to the scalar case on the derived stream.
        """
        self.substrate.update(value)

    def monitored(self, step: int, value: float) -> float:
        """The sampler-facing statistic for one consumed offer."""
        if self.task_type == "value":
            return self.aggregate(step, value)
        if self.task_type == "quantile":
            return self.substrate.exceedance(self.value_threshold)
        return self.substrate.entropy()

    def make_alert(self, step: int, monitored: float) -> Alert:
        """The alert for a violation at ``step``, on a scalar service.

        Value and entropy tasks report the monitored statistic against
        the spec threshold. Quantile tasks alert in the *value* frame —
        the estimated ``p_q`` against the raw threshold ``T`` — because
        that is the predicate the operator registered; the exceedance
        rate the sampler watches is an internal derivation. (An engine
        service holds the same two frames in columns: the row's
        ``alert_threshold``, and ``p_q`` as of the alerting offer.)
        """
        if self.task_type == "quantile":
            return Alert(time_index=step,
                         value=self.substrate.quantile_value(),
                         threshold=self.value_threshold)
        return Alert(time_index=step, value=monitored,
                     threshold=self.task.threshold)

    def state_dict(self, suspensions: int) -> dict[str, Any]:
        """What few tasks have, JSON-able, only when present: the sparse
        part of a snapshot (:meth:`MonitoringService.snapshot` holds what
        every task has as columns). ``suspensions`` is the deferred-offer
        count from wherever the service keeps it.

        Typed-task keys, trigger-channel keys (so guards survive
        migration and failover bit-identically) and a non-empty window
        buffer each appear only on the tasks that have them, so the
        snapshot of a fleet of plain tasks holds nothing per task. The
        ``on_alert`` callback is *not* serialisable — restoring callers
        re-attach their own.
        """
        state: dict[str, Any] = {}
        if self.task_type != "value":
            state["type"] = self.task_type
            state["value_threshold"] = self.value_threshold
            state["substrate"] = self.substrate.state_dict()
        if self.remote_trigger is not None:
            state["remote_trigger"] = self.remote_trigger
            state["trigger_armed"] = self.trigger_armed
            state["trigger_suspensions"] = suspensions
        if self.watch is not None:
            state["watch"] = self.watch.state_dict()
        if self._window_values:
            state["window_values"] = [[s, v] for s, v in self._window_values]
        return state

    @classmethod
    def from_state_dict(cls, state: dict[str, Any],
                        **dense: Any) -> "TaskState":
        """Rebuild a task from its ``dense`` fields (constructor
        arguments, off a snapshot's columns) and :meth:`state_dict` — all
        but ``trigger_suspensions``, which the service loads where it
        keeps it."""
        if not state:  # a plain task: most of any fleet
            return cls(**dense)
        task_type = state.get("type", "value")
        substrate: Any = None
        if task_type == "quantile":
            substrate = QuantileEstimator.from_state_dict(state["substrate"])
        elif task_type == "entropy":
            substrate = EntropyEstimator.from_state_dict(state["substrate"])
        elif task_type != "value":
            raise ConfigurationError(
                f"unknown task type {task_type!r} in snapshot entry "
                f"{dense.get('name')!r}")
        # The typed three and the guard three come as sets (_check_snapshot).
        typed = ({"value_threshold": state["value_threshold"]}
                 if "type" in state else {})
        guard = ({"remote_trigger": state["remote_trigger"],
                  "trigger_armed": state["trigger_armed"]}
                 if "remote_trigger" in state else {})
        task_state = cls(
            task_type=task_type, substrate=substrate,
            watch=(TriggerWatcher.from_state_dict(state["watch"])
                   if "watch" in state else None),
            **typed, **guard, **dense)
        task_state._window_values.extend(
            (int(s), float(v)) for s, v in state.get("window_values", ()))
        return task_state


def _adaptation_to_dict(config: AdaptationConfig) -> dict[str, Any]:
    return {f.name: getattr(config, f.name)
            for f in dataclass_fields(AdaptationConfig)}


def _adaptation_from_dict(entry: dict[str, Any]) -> AdaptationConfig:
    return AdaptationConfig(**entry)


# -- the snapshot document (DESIGN.md S31 "snapshots are columns") ------
#
# What every task has is one list per key, aligned with ``names``
# (registration order), grouped by where it lives: ``spec`` (the
# TaskSpec fields), ``sampler`` (core.soa.SAMPLER_STATE) and ``task``
# (schedule, window, guard level, alert count). ``alerts`` are three
# flat columns in ``names`` order, each task's oldest first, cut by
# ``task.alerts``. What few tasks have is a map by task name per
# TaskState.state_dict key, under ``sparse``. key -> element types:
_NUMBER, _INT, _STR = (float, int), (int,), (str,)
_GROUPS: dict[str, dict[str, tuple[type, ...]]] = {
    "spec": {"threshold": _NUMBER, "error_allowance": _NUMBER,
             "default_interval": _NUMBER, "max_interval": _INT,
             "direction": _STR, "name": _STR},
    "sampler": {key: _NUMBER if kind is float else (kind,)
                for key, (_, kind) in SAMPLER_STATE.items()},
    "task": {"adaptation": _INT, "window": _INT, "window_kind": _STR,
             "window_sum": _NUMBER, "next_due": _INT, "samples_taken": _INT,
             "alerts": _INT, "trigger_level": _NUMBER,
             "suspend_interval": _INT},
    "alerts": {"step": _INT, "value": _NUMBER, "threshold": _NUMBER},
}
_SPARSE_KEYS = ("type", "value_threshold", "substrate", "remote_trigger",
                "trigger_armed", "trigger_suspensions", "watch",
                "window_values")
_SNAPSHOT_KEYS = {"version", "adaptation", "adaptations", "names",
                  *_GROUPS, "sparse"}
_DIRECTIONS = {d.value: d for d in ThresholdDirection}
_WINDOW_KINDS = {k.value: k for k in AggregateKind}


def snapshot_task_names(snapshot: Mapping[str, Any]) -> list[str]:
    """The tasks a :meth:`MonitoringService.snapshot` document carries,
    in registration order (none for ``{}``, a shard entry with no
    snapshot), so nobody outside this module indexes a snapshot's
    insides."""
    return list(snapshot.get("names", ()))


def _distinct(configs: Iterable[AdaptationConfig],
              ) -> tuple[list[AdaptationConfig], list[int]]:
    """The distinct ``configs`` in first-use order, and each one's index
    among them — a snapshot's ``adaptations`` and ``task.adaptation``."""
    seen: dict[AdaptationConfig, int] = {}
    indices = [seen.setdefault(config, len(seen)) for config in configs]
    return list(seen), indices


def _sparse_maps(states: Iterable[tuple[str, dict[str, Any]]],
                 ) -> dict[str, dict[str, Any]]:
    """``(name, TaskState.state_dict())`` pairs as a snapshot's
    ``sparse`` group: one map by task name per key."""
    sparse: dict[str, dict[str, Any]] = {key: {} for key in _SPARSE_KEYS}
    for name, state in states:
        for key, value in state.items():
            sparse[key][name] = value
    return sparse


def _check_snapshot(snapshot: Mapping[str, Any]) -> None:
    """Refuse a version-3 document that is not one — a wrong key set, a
    ragged or mistyped column, counts, indices or names that point
    nowhere — with a :class:`ConfigurationError` naming the culprit,
    before a service exists."""
    def fail(what: str) -> None:
        raise ConfigurationError(f"malformed snapshot: {what}")

    def check_keys(where: str, have: Any, want: Iterable[str]) -> None:
        if not isinstance(have, dict):
            fail(f"{where} is not a map")
        if set(have) != set(want):
            fail(f"{where} has missing or unknown keys "
                 f"{sorted(set(have) ^ set(want), key=repr)}")

    def check(where: str, column: Any, kinds: tuple[type, ...],
              length: int | None) -> None:
        if not isinstance(column, list) or length not in (None, len(column)):
            fail(f"column {where} is not a list"
                 + ("" if length is None else f" of {length} elements"))
        if not set(map(type, column)) <= set(kinds):
            fail(f"column {where} holds an element that is not "
                 + " or ".join(kind.__name__ for kind in kinds))
        if kinds == _INT:
            try:
                np.asarray(column, dtype=np.int64)
            except OverflowError:
                fail(f"column {where} holds an integer beyond 64 bits")

    check_keys("the document", snapshot, _SNAPSHOT_KEYS)
    names = snapshot["names"]
    check("names", names, _STR, None)
    known = set(names)
    if len(known) != len(names):
        fail("names holds a task twice")
    for group, kinds in _GROUPS.items():
        check_keys(f"group {group!r}", snapshot[group], kinds)
    task = snapshot["task"]
    check("task.alerts", task["alerts"], _INT, len(names))
    if min(task["alerts"], default=0) < 0:
        fail("column task.alerts holds a negative count")
    for group, kinds in _GROUPS.items():
        # One element per task; per alert (task.alerts in all) in alerts.
        length = sum(task["alerts"]) if group == "alerts" else len(names)
        for key, kind in kinds.items():
            check(f"{group}.{key}", snapshot[group][key], kind, length)
    configs = snapshot["adaptations"]
    if not isinstance(configs, list) or not set(
            task["adaptation"]) <= set(range(len(configs))):
        fail("column task.adaptation indexes outside adaptations")
    for where, column, legal in (
            ("spec.direction", snapshot["spec"]["direction"], _DIRECTIONS),
            ("task.window_kind", task["window_kind"], _WINDOW_KINDS)):
        strays = set(column) - set(legal)
        if strays:
            fail(f"column {where} holds {min(strays, key=repr)!r}")
    sparse = snapshot["sparse"]
    check_keys("group 'sparse'", sparse, _SPARSE_KEYS)
    for key, column in sparse.items():
        if not isinstance(column, dict) or not set(column) <= known:
            fail(f"map {key!r} has a key that is not in names")
    for keys in (_SPARSE_KEYS[:3], _SPARSE_KEYS[3:6]):
        if len({frozenset(sparse[key]) for key in keys}) != 1:
            fail(f"maps {list(keys)} are not keyed by the same tasks")
    if not set(map(type, sparse["trigger_suspensions"].values())) <= {int}:
        fail("map 'trigger_suspensions' holds a value that is not int")


class _RowHooks:
    """What :meth:`SoaSamplerEngine.run_columns` calls back for marked
    rows: their substrates and window buffers stay on the
    :class:`TaskState`, so the tick asks for the monitored scalar instead
    of the task leaving the tick. A row's kind is resolved once, in
    :meth:`bind`: the per-offer loops are a dict lookup and a call.
    """

    __slots__ = ("update", "read", "estimates")

    def __init__(self) -> None:
        # row -> its substrate's update / its TaskState.monitored, bound.
        self.update: dict[int, Callable[[float], None]] = {}
        self.read: dict[int, Callable[[int, float], float]] = {}
        # (row, step) -> a quantile task's p_q as of a violating offer:
        # the alert is built after the batch, when the substrate has
        # absorbed the row's later occurrences.
        self.estimates: dict[tuple[int, int], float] = {}

    def bind(self, row: int, state: TaskState) -> None:
        substrate = state.substrate
        if substrate is None:
            if state.window > 1:
                self.read[row] = state.aggregate
            return
        self.update[row] = substrate.update  # TaskState.absorb
        if state.task_type != "quantile":
            self.read[row] = lambda step, value: substrate.entropy()
            return
        threshold, violated = state.value_threshold, state.task.violated
        estimates = self.estimates

        def read(step: int, value: float) -> float:
            monitored = substrate.exceedance(threshold)
            if violated(monitored):
                # First writer wins: a later offer repeating the step is
                # rejected by the sampler and must not replace it.
                estimates.setdefault((row, step), substrate.quantile_value())
            return monitored
        self.read[row] = read

    def release(self, row: int) -> None:
        self.update.pop(row, None)
        self.read.pop(row, None)

    def absorb(self, rows: np.ndarray, values: np.ndarray) -> None:
        update = self.update
        for row, value in zip(rows.tolist(), values.tolist()):
            update[row](value)

    def monitored(self, rows: np.ndarray, steps: np.ndarray,
                  values: np.ndarray) -> list[float]:
        read = self.read
        return [read[row](step, value) for row, step, value in zip(
            rows.tolist(), steps.tolist(), values.tolist())]


_ALERT_ENTRY = np.dtype([("row", np.int64), ("step", np.int64),
                         ("value", np.float64), ("threshold", np.float64)])


class _AlertLog:
    """An engine service's alert history (DESIGN.md S31): one append-only
    log of ``(row, step, value, threshold)`` entries for all its tasks,
    in the order raised — tick order across tasks, so each task's
    entries are in its arrival order. An alert is 32 bytes of one
    growable array; nothing is built per alert until somebody reads.
    """

    __slots__ = ("_entries", "size")

    def __init__(self) -> None:
        self._entries = np.empty(0, dtype=_ALERT_ENTRY)
        self.size = 0

    @property
    def rows(self) -> np.ndarray:
        """The row of every entry, oldest first (a view)."""
        return self._entries["row"][:self.size]

    def append(self, rows: Any, steps: Any, values: Any,
               thresholds: Any) -> None:
        end = self.size + len(rows)
        if end > len(self._entries):
            grown = np.empty(max(end, 2 * len(self._entries), 256),
                             dtype=_ALERT_ENTRY)
            grown[:self.size] = self._entries[:self.size]
            self._entries = grown
        new = self._entries[self.size:end]
        new["row"] = rows
        new["step"] = steps
        new["value"] = values
        new["threshold"] = thresholds
        self.size = end

    def of_row(self, row: int) -> list[list[Any]]:
        """One row's entries, oldest first, as ``[step, value,
        threshold]`` lists (the ``alerts`` op's form)."""
        entries = self._entries[np.flatnonzero(self.rows == row)]
        return list(map(list, zip(entries["step"].tolist(),
                                  entries["value"].tolist(),
                                  entries["threshold"].tolist())))

    def columns(self) -> dict[str, list[Any]]:
        """Every entry as a snapshot's ``alerts`` columns: grouped by
        row, rows ascending — registration order, as rows are handed out
        in it and never reused — and each row's oldest first. One stable
        argsort and a ``tolist()`` per column."""
        entries = self._entries[np.argsort(self.rows, kind="stable")]
        return {key: entries[key].tolist() for key in _GROUPS["alerts"]}

    def drop_row(self, row: int) -> None:
        """Forget a retired row's entries; the rest keep their order."""
        keep = np.flatnonzero(self.rows != row)
        self._entries[:len(keep)] = self._entries[keep]
        self.size = len(keep)


class MonitoringService:
    """Push-based multi-task monitoring front end."""

    # Telemetry defaults (class attributes): a service with no attached
    # trace pays one ``is not None`` check per decision-worthy event.
    # Traces are deliberately not part of snapshot()/restore() — like
    # alert callbacks, the owner re-attaches after a restore.
    _trace = None
    _trace_shard: int | str | None = None
    # Trigger-edge sink (same lifecycle as traces): the owning runtime
    # attaches a callable to route edges to its other shards in-process;
    # cluster workers leave it unset and the coordinator drains the
    # buffer. The service's own guards need neither (_deliver_edge).
    _trigger_sink: Callable[[dict[str, Any]], None] | None = None
    # Alert-count sink (same lifecycle again): what hosts an engine
    # service counts the alerts of each batch through it.
    _alert_count_sink: Callable[[int], None] | None = None

    def __init__(self, config: AdaptationConfig | None = None,
                 soa: bool = False):
        self._config = config or AdaptationConfig()
        self._tasks: dict[str, TaskState] = {}
        self._trigger_events: deque[dict[str, Any]] = deque(maxlen=1024)
        # trigger name -> the tasks of this service guarded on it, by
        # name (see _index_guard): whom an edge of that trigger flips.
        self._guards: dict[str, dict[str, TaskState]] = {}
        self._watchers = 0  # tasks carrying a TriggerWatcher
        self._soa = SoaSamplerEngine() if soa else None
        self._soa_rows: dict[int, TaskState] = {}
        # Every row's task name, removed tasks' included — rows are never
        # reused, so this only grows: what the trace names a row by.
        self._row_names: list[str] = []
        self._hooks = _RowHooks()
        # An engine service's alert history, and the rows whose task
        # came with a caller's on_alert: the only alerts built as they
        # are raised.
        self._alert_log = _AlertLog()
        self._alert_callbacks: dict[int, AlertCallback] = {}

    # -- SoA engine plumbing (DESIGN.md S31) ----------------------------
    #
    # A service is all rows or all scalar from construction. With
    # ``soa=True`` every task — plain, windowed, quantile, entropy,
    # guarded, watched — is a row of a shared
    # :class:`~repro.core.soa.SoaSamplerEngine` from registration to
    # removal and has no scalar sampler; without, every task is stepped
    # through its own :class:`ViolationLikelihoodSampler` by the
    # reference :meth:`offer`. Behaviour — and snapshots — are identical
    # either way.

    def _register(self, state: TaskState, row: int | None = None) -> None:
        """Take ``state`` in; on an engine service onto a fresh row, or
        onto ``row`` when the caller allocated it (a restore's, in bulk)."""
        self._tasks[state.name] = state
        self._watchers += state.watch is not None
        self._index_guard(state, True)
        engine = self._soa
        if engine is None:
            state.sampler = ViolationLikelihoodSampler(state.task,
                                                       state.config)
            return
        if row is None:
            row = engine.add_task(state.task, state.config)
        state.soa_row = row
        self._row_names.append(state.name)  # rows are handed out in order
        typed = state.task_type != "value"
        engine.mark_row(row, absorbs=typed,
                        derived=typed or state.window > 1,
                        watched=state.watch is not None)
        if state.task_type == "quantile":
            # Alerts are in the value frame (TaskState.make_alert).
            engine.alert_threshold[row] = state.value_threshold
        if state.on_alert is not None:
            self._alert_callbacks[row] = state.on_alert
        self._soa_rows[row] = state
        self._hooks.bind(row, state)
        self._refresh_floor(state)

    def _index_guard(self, state: TaskState, guarded: bool) -> None:
        """Enter the task under its trigger in ``_guards`` or take it
        out; brackets every write to ``remote_trigger``."""
        trigger = state.remote_trigger
        if trigger is None:
            return
        if guarded:
            self._guards.setdefault(trigger, {})[state.name] = state
        else:
            del self._guards[trigger][state.name]
            if not self._guards[trigger]:
                del self._guards[trigger]

    def _refresh_floor(self, state: TaskState) -> None:
        """Bring the row's schedule floor in line with the guard fields;
        follows every write to ``remote_trigger`` / ``trigger_armed`` /
        ``suspend_interval``."""
        if self._soa is not None:
            self._soa.set_floor(
                state.soa_row,
                state.suspend_interval if state.remote_trigger is not None
                and not state.trigger_armed else 1)

    @property
    def soa_engine(self):
        """The service's SoA engine, or ``None`` (scalar-only service)."""
        return self._soa

    def soa_row_for(self, name: str) -> int:
        """The task's engine row — the same from registration to
        removal — or ``-1`` on a scalar service."""
        return self._state(name).soa_row

    def attach_telemetry(self, trace: Any,
                         shard: int | str | None = None) -> None:
        """Attach a decision trace (``repro.telemetry.trace``).

        Once attached, interval adaptations (grow/reset) and violations
        observed by :meth:`offer` / :meth:`offer_columns` are emitted as
        structured trace events tagged with ``shard``. Pass ``None`` to
        detach.
        """
        self._trace = trace if trace is not None and trace.enabled else None
        self._trace_shard = shard

    @property
    def task_names(self) -> list[str]:
        """Registered task identifiers."""
        return list(self._tasks)

    def add_task(self, name: str, task: TaskSpec,
                 on_alert: AlertCallback | None = None,
                 window: int = 1,
                 window_kind: AggregateKind = AggregateKind.MEAN,
                 config: AdaptationConfig | None = None) -> None:
        """Register a monitoring task.

        Args:
            name: unique identifier.
            task: threshold task (threshold, allowance, intervals).
            on_alert: invoked synchronously for every violation observed.
            window: aggregation window in default intervals (1 = react to
                the instantaneous value).
            window_kind: aggregation function for ``window > 1``.
            config: per-task adaptation tunables (service default
                otherwise).
        """
        if name in self._tasks:
            raise ConfigurationError(f"task {name!r} already registered")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self._register(TaskState(name=name, task=task,
                                 config=config or self._config,
                                 window=window, window_kind=window_kind,
                                 on_alert=on_alert))

    def add_quantile_task(self, name: str, *, threshold: float,
                          quantile: float,
                          error_allowance: float = 0.01,
                          default_interval: float = 1.0,
                          max_interval: int = 10,
                          direction: ThresholdDirection =
                          ThresholdDirection.UPPER,
                          sketch_window: int = DEFAULT_SKETCH_WINDOW,
                          relative_error: float = DEFAULT_RELATIVE_ERROR,
                          on_alert: AlertCallback | None = None,
                          config: AdaptationConfig | None = None) -> None:
        """Register a quantile-threshold task ``p_q(X) > threshold``.

        The sampler never sees raw values. Its monitored statistic is
        the substrate's windowed *exceedance rate* ``P(X > threshold)``,
        compared against the derived threshold ``1 - quantile`` —
        ``p_q(X) > T`` holds exactly when more than ``1 - q`` of the
        window sits above ``T``. The indicator ``1{x > T}`` is a
        Bernoulli stream, so the rate's delta statistics feed the
        Cantelli/Gaussian violation-likelihood kernels and the AIMD
        interval adaptation unchanged. ``direction="lower"`` flips the
        predicate to ``p_q(X) < threshold`` (exceedance below
        ``1 - q``).

        Every offered value updates the sketch (O(1)); the schedule
        gates the derived-statistic evaluation and alerting. Alerts
        report the estimated quantile against ``threshold`` — the
        predicate the caller registered — not the internal rate.

        Args:
            name: unique identifier.
            threshold: raw value threshold ``T``.
            quantile: tracked ``q`` in (0, 1), e.g. 0.99 for p99.
            sketch_window: observations per sketch epoch (queries span
                one sealed epoch plus the current one).
            relative_error: sketch accuracy ``alpha``.
            (remaining args as :meth:`add_task`.)
        """
        if name in self._tasks:
            raise ConfigurationError(f"task {name!r} already registered")
        substrate = QuantileEstimator(quantile=quantile,
                                      window=sketch_window,
                                      relative_error=relative_error)
        spec = TaskSpec(threshold=1.0 - substrate.quantile,
                        error_allowance=error_allowance,
                        default_interval=default_interval,
                        max_interval=max_interval,
                        direction=direction, name=name)
        self._register(TaskState(
            name=name, task=spec, config=config or self._config,
            on_alert=on_alert, task_type="quantile",
            value_threshold=float(threshold), substrate=substrate))

    def add_entropy_task(self, name: str, *, threshold: float,
                         error_allowance: float = 0.01,
                         default_interval: float = 1.0,
                         max_interval: int = 10,
                         direction: ThresholdDirection =
                         ThresholdDirection.LOWER,
                         entropy_window: int = DEFAULT_ENTROPY_WINDOW,
                         bin_width: float = 1.0,
                         on_alert: AlertCallback | None = None,
                         config: AdaptationConfig | None = None) -> None:
        """Register a streaming-entropy task (default: drop-below).

        The monitored statistic is the windowed empirical entropy (bits)
        of the offered values binned at ``bin_width`` — a smooth scalar
        stream, so the violation-likelihood machinery applies to it
        directly. The default ``direction="lower"`` alerts when entropy
        collapses below ``threshold`` (the SYN-flood signature of the
        distributed entropy-monitoring literature).

        Every offered value updates the window; the schedule gates the
        entropy evaluation and alerting.

        Args:
            name: unique identifier.
            threshold: entropy threshold in bits.
            entropy_window: sliding-window length in observations.
            bin_width: symbolisation bin width for the offered values.
            (remaining args as :meth:`add_task`.)
        """
        if name in self._tasks:
            raise ConfigurationError(f"task {name!r} already registered")
        substrate = EntropyEstimator(window=entropy_window,
                                     bin_width=bin_width)
        spec = TaskSpec(threshold=float(threshold),
                        error_allowance=error_allowance,
                        default_interval=default_interval,
                        max_interval=max_interval,
                        direction=direction, name=name)
        self._register(TaskState(
            name=name, task=spec, config=config or self._config,
            on_alert=on_alert, task_type="entropy", substrate=substrate))

    def remove_task(self, name: str) -> None:
        """Unregister a task (live-runtime tenant churn).

        Any task of this service guarded on the removed one loses its
        guard and falls back to pure violation-likelihood scheduling — a
        guard with no edge source left would otherwise freeze the
        dependent task at whatever armed state the last edge left.

        Raises :class:`~repro.exceptions.ConfigurationError` when the task
        is unknown.
        """
        state = self._state(name)  # must exist
        del self._tasks[name]
        self._watchers -= state.watch is not None
        self._index_guard(state, False)
        if self._soa is not None:
            # The one place a row is retired.
            self._soa.deactivate(state.soa_row)
            del self._soa_rows[state.soa_row]
            self._hooks.release(state.soa_row)
            self._alert_callbacks.pop(state.soa_row, None)
            if self._soa.alerts[state.soa_row]:
                self._alert_log.drop_row(state.soa_row)
        for other in self._guards.pop(name, {}).values():
            other.remote_trigger = None
            other.trigger_armed = True
            self._refresh_floor(other)

    def add_trigger(self, target: str, trigger: str, elevation_level: float,
                    suspend_interval: int = 10) -> None:
        """Gate ``target``'s sampling on ``trigger``, a task of this
        service: while the most recent value offered for ``trigger`` sits
        below ``elevation_level`` the target idles at ``suspend_interval``
        (paper SII-A's state-correlation scheme; typically configured from
        a :class:`repro.core.correlation.TriggerRule`).

        A local pair is a channel plan whose two halves share a service:
        this is :meth:`install_trigger_plan` of the pair at hysteresis 0
        and hold 0, whose watcher is armed exactly when the trigger's
        last offered value is ``>= elevation_level``. Debouncing bounds
        *messages*, and an edge delivered inside the service that raised
        it is none. A trigger task carries one watch, hence one level: a
        level other than the one ``trigger`` is already watched at is
        refused while another task of the service is guarded on it.
        """
        self._state(target)
        watch = self._state(trigger).watch
        others = self._guards.get(trigger, {}).keys() - {target}
        if (watch is not None and others
                and watch.level != float(elevation_level)):
            raise ConfigurationError(
                f"task {trigger!r} is watched at level {watch.level!r} for "
                f"{sorted(others)}; a trigger task carries one watch, "
                f"hence one level")
        self.install_trigger_plan(TriggerPlan(
            target, trigger, elevation_level, suspend_interval,
            hysteresis=0.0, min_hold=0))

    # -- trigger channel (repro.triggers, DESIGN.md S32) ----------------
    #
    # One gate: a guard on the target (``remote_trigger``, the explicit
    # ``trigger_armed`` flag, the row's ``floor``) flipped by arm/disarm
    # *edges*, and a watch on the trigger that turns its offered values
    # into them, so the trigger task may live on any shard or worker.
    # The service flips the guards it hosts itself (``_deliver_edge``);
    # whoever routes the rest (the runtime server in-process, the
    # cluster coordinator across workers) flips the others.

    def add_remote_trigger(self, target: str, trigger: str,
                           elevation_level: float,
                           suspend_interval: int = 10) -> None:
        """Guard ``target`` on channel edges from (possibly remote)
        ``trigger``: the target's half of a plan.

        Unlike :meth:`add_trigger` the trigger need not be registered on
        this service. Re-installing the same pair is idempotent and
        *preserves* the current armed state — post-failover re-installs
        must not silently re-arm a deliberately disarmed guard; a new
        trigger re-targets the guard, armed.
        """
        state = self._state(target)
        if not trigger:
            raise ConfigurationError("trigger name must be non-empty")
        if trigger == target:
            raise ConfigurationError(
                f"task {target!r} cannot trigger itself")
        if suspend_interval < 1:
            raise ConfigurationError(
                f"suspend_interval must be >= 1, got {suspend_interval}")
        fresh = state.remote_trigger != trigger
        self._index_guard(state, False)
        state.remote_trigger = trigger
        self._index_guard(state, True)
        state.trigger_level = float(elevation_level)
        state.suspend_interval = int(suspend_interval)
        if fresh:
            state.trigger_armed = True
        self._refresh_floor(state)

    def add_trigger_watch(self, trigger: str, level: float,
                          hysteresis: float = 0.1,
                          min_hold: int = 5) -> None:
        """Watch ``trigger``'s offered values for arm/disarm edges: the
        trigger's half of a plan.

        Every offer — due or not — feeds the watcher, so edge latency is
        one collection period, not one sampling interval. Re-installing
        an identical watch keeps the existing debounce state; changed
        parameters replace the watcher (conservatively re-armed).
        """
        state = self._state(trigger)
        if state.watch is not None:
            current = state.watch.state_dict()
            if (current["level"] == float(level)
                    and current["hysteresis"] == float(hysteresis)
                    and current["min_hold"] == int(min_hold)):
                return
        else:
            self._watchers += 1
            if self._soa is not None:
                self._soa.watched[state.soa_row] = True
        state.watch = TriggerWatcher(level, hysteresis=hysteresis,
                                     min_hold=min_hold)

    def install_trigger_plan(self, plan: TriggerPlan) -> None:
        """Wire whichever sides of a ``TriggerPlan`` live on this service.

        A plan's trigger and target may land on different shards; each
        shard's service installs only its local half (guard on the
        target task, watch on the trigger task), both when they share it.
        """
        if plan.target in self._tasks:
            self.add_remote_trigger(plan.target, plan.trigger,
                                    plan.elevation_level,
                                    suspend_interval=plan.suspend_interval)
        if plan.trigger in self._tasks:
            self.add_trigger_watch(plan.trigger, plan.elevation_level,
                                   hysteresis=plan.hysteresis,
                                   min_hold=plan.min_hold)

    def set_trigger_armed(self, target: str, armed: bool) -> bool:
        """Flip a guarded task's armed flag; returns the previous state.

        Emits a ``trigger_armed`` / ``trigger_disarmed`` trace event on
        actual transitions (the channel's SelfMonitor-style audit trail).
        """
        state = self._state(target)
        if state.remote_trigger is None:
            raise ConfigurationError(
                f"task {target!r} has no remote trigger")
        prev = state.trigger_armed
        state.trigger_armed = bool(armed)
        if prev != state.trigger_armed:
            if state.trigger_armed:
                # Full-rate resume: while disarmed the suspend gate may
                # have parked next_due up to suspend_interval ahead and
                # let the sampler keep a grown interval earned on the
                # healthy stream. The arm edge signals a suspected
                # incident, so the guard probes again at the very next
                # offer and at the default rate.
                if self._soa is not None:
                    self._soa.resume_full_rate(state.soa_row)
                else:
                    state.sampler.resume_full_rate()
                    state.next_due = 0
            self._refresh_floor(state)
            if self._trace is not None:
                self._trace.emit(
                    "trigger_armed" if state.trigger_armed
                    else "trigger_disarmed",
                    task=target, shard=self._trace_shard,
                    trigger=state.remote_trigger)
        return prev

    def trigger_status(self, name: str) -> dict[str, Any]:
        """The task's channel wiring: guard state and/or watch state.

        Empty dict for tasks outside the channel; ``trigger`` / ``armed``
        / ``suspend_interval`` / ``suspensions`` for guarded targets,
        ``watch`` (the watcher's state_dict) for edge sources.
        """
        state = self._state(name)
        status: dict[str, Any] = {}
        if state.remote_trigger is not None:
            status["trigger"] = state.remote_trigger
            status["armed"] = state.trigger_armed
            status["suspend_interval"] = state.suspend_interval
            status["suspensions"] = self._suspensions(state)
        if state.watch is not None:
            status["watch"] = state.watch.state_dict()
        return status

    def trigger_suspensions(self, name: str) -> int:
        """Consumed offers the disarmed guard deferred so far."""
        return self._suspensions(self._state(name))

    def _suspensions(self, state: TaskState) -> int:
        if self._soa is not None:
            return int(self._soa.suspensions[state.soa_row])
        return state.trigger_suspensions

    def trigger_accounting(self) -> tuple[int, float]:
        """``(suspensions, est_probes_saved)`` across guarded tasks.

        Each suspension pushes the guarded task's next probe out to
        ``suspend_interval`` instead of the full violation-likelihood
        rate, skipping up to ``suspend_interval - 1`` probe collections —
        the estimate the ``volley_trigger_probe_cost_saved`` gauge
        exports (an upper bound; the sampler may already have been
        backed off).
        """
        suspensions = 0
        saved = 0.0
        for state in self._tasks.values():
            if state.remote_trigger is None:
                continue
            deferred = self._suspensions(state)
            suspensions += deferred
            saved += deferred * (state.suspend_interval - 1)
        return suspensions, saved

    def set_trigger_sink(self, sink: Callable[[dict[str, Any]], None]
                         | None) -> None:
        """Attach a callable receiving each arm/disarm edge synchronously.

        Like traces and alert callbacks, sinks are not serialised —
        owners re-attach after restore. Buffered delivery via
        :meth:`drain_trigger_events` works with or without a sink.
        """
        self._trigger_sink = sink

    def set_alert_count_sink(self, sink: Callable[[int], None] | None,
                             ) -> None:
        """Attach a callable receiving the number of alerts each batch
        (or by-name offer) of an engine service raised, after they are
        logged and before any task's ``on_alert`` runs — how a host
        counts alerts without a callback per task or a call per alert.
        Not serialised, like :meth:`set_trigger_sink`'s.
        """
        if self._soa is None:
            raise ConfigurationError(
                "an alert-count sink requires an SoA-enabled service")
        self._alert_count_sink = sink

    def drain_trigger_events(self) -> list[dict[str, Any]]:
        """Pop the buffered arm/disarm edges (oldest first).

        Each event is ``{"op": "arm"|"disarm", "trigger": name,
        "step": int, "value": float}``, already applied to this
        service's own guards. The cluster coordinator polls this per
        worker. With a sink attached edges are delivered synchronously
        instead of buffered (so an in-process runtime never accumulates
        events nobody drains); without one the buffer is a bounded ring
        — edges evicted unread are lost to the guards of *other*
        services, like trace events under a storm.
        """
        events = list(self._trigger_events)
        self._trigger_events.clear()
        return events

    def _watch_edge(self, state: TaskState, value: float,
                    step: int) -> None:
        edge = state.watch.observe(value, step)
        if edge is not None:
            self._deliver_edge({"op": edge, "trigger": state.name,
                                "step": int(step), "value": float(value)})

    def _deliver_edge(self, event: dict[str, Any]) -> None:
        """Route one watch edge: flip every task of this service guarded
        on the edge's trigger, then hand the event on — to the sink or
        the buffer — for whoever routes what this service cannot see."""
        armed = event["op"] == "arm"
        for name in self._guards.get(event["trigger"], ()):
            self.set_trigger_armed(name, armed)
        if self._trigger_sink is not None:
            self._trigger_sink(event)
        else:
            self._trigger_events.append(event)

    def _state(self, name: str) -> TaskState:
        try:
            return self._tasks[name]
        except KeyError:
            raise ConfigurationError(f"unknown task {name!r}") from None

    def due(self, name: str, step: int) -> bool:
        """Whether the task wants a sampling operation at ``step``.

        Callers may skip the (expensive) collection work whenever this is
        False — that skipping *is* the saving.
        """
        return step >= self.next_due(name)

    def next_due(self, name: str) -> int:
        """Grid step of the task's next wanted sample."""
        state = self._state(name)
        if self._soa is not None:
            return int(self._soa.next_due[state.soa_row])
        return state.next_due

    def offer(self, name: str, value: float, step: int,
              ) -> SamplingDecision | None:
        """Push a collected value for a task.

        Returns the sampling decision when the value was consumed as a
        scheduled sample, or ``None`` when the task was not due (the
        value still feeds the task's trigger watch and substrate).
        A non-finite ``value`` raises :class:`ValueError` before anything
        is touched.

        Alerts fire synchronously through the task's callback.

        On a scalar service this is the reference statement of a step
        (``sampler.observe``) and the only one; an engine service steps
        the task's row (:meth:`_offer_soa`).
        """
        if self._soa is not None:
            interval = self._offer_soa(name, value, step)
            if interval is None:
                return None
            engine = self._soa
            row = self._tasks[name].soa_row
            flags = int(engine.last_flags[row])
            return SamplingDecision(
                next_interval=interval,
                misdetection_bound=float(engine.last_beta[row]),
                grew=bool(flags & 1), reset=bool(flags & 2),
                violation=bool(flags & 4))
        if not isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        state = self._state(name)
        if state.watch is not None:
            self._watch_edge(state, value, step)
        if state.task_type != "value":
            state.absorb(value)
        if step < state.next_due:
            return None

        monitored = state.monitored(step, value)
        decision = state.sampler.observe(monitored, step)
        state.samples_taken += 1
        state.next_due = step + self._gate(state, decision.next_interval)
        self._fan_out(
            state, step, monitored, decision.next_interval,
            decision.grew | decision.reset << 1 | decision.violation << 2,
            decision.misdetection_bound)
        return decision

    def offer_fast(self, name: str, value: float, step: int) -> int | None:
        """:meth:`offer` for a caller that wants only the sampler's next
        interval (the pre-gating value :meth:`offer` reports in its
        decision) of a consumed offer, ``None`` when the task was not
        due. A name, not a surface (DESIGN.md S27): an engine service
        steps the row without building the decision, a scalar service
        calls :meth:`offer`.
        """
        if self._soa is not None:
            return self._offer_soa(name, value, step)
        decision = self.offer(name, value, step)
        return None if decision is None else decision.next_interval

    def _offer_soa(self, name: str, value: float,
                   step: int) -> int | None:
        """An engine service's by-name step of one offer — :meth:`offer`
        on the task's row, bit for bit, returning what :meth:`offer_fast`
        does. Every offer that does not ride a tick comes here: the
        by-name entry points, and the ``fallback`` positions of a column
        batch (negative or stale rows)."""
        if not isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        state = self._state(name)
        if not STEP_MIN <= step <= STEP_MAX:
            # Refuse before any column is written rather than half-way
            # through the row.
            raise ValueError(f"step {step!r} is outside the engine's "
                             f"range [{STEP_MIN}, {STEP_MAX}]")
        engine = self._soa
        row = state.soa_row
        if state.watch is not None:
            self._watch_edge(state, value, step)
        if state.task_type != "value":
            state.absorb(value)
        if step < engine.next_due[row]:
            return None
        monitored = state.monitored(step, value)
        interval = engine.observe_one(row, monitored, step)
        engine.advance_one(row, step, interval)
        flags = int(engine.last_flags[row])
        if flags:
            self._fan_out_columns(
                ColumnBatchResult.of_one(row, step, monitored, interval,
                                         flags, float(engine.last_beta[row])),
                {(row, step): state.substrate.quantile_value()}
                if flags & 4 and state.task_type == "quantile" else {})
        return interval

    def _gate(self, state: TaskState, interval: int) -> int:
        """Trigger gating of a scalar service's consumed offer: the
        advance (>= 1) to its next due step, given the sampler's
        ``interval`` — a disarmed guard's floor, which on an engine
        service is the row's ``floor`` column."""
        advance = interval
        if (state.remote_trigger is not None and not state.trigger_armed
                and state.suspend_interval > advance):
            advance = state.suspend_interval
            state.trigger_suspensions += 1
        return advance if advance > 1 else 1

    def _fan_out(self, state: TaskState, step: int, monitored: float,
                 interval: int, flags: int, beta: float) -> None:
        """A scalar service's alert and trace fan-out of a consumed
        offer's ``flags`` (1 grew, 2 reset, 4 violation) — the reference
        statement :meth:`_fan_out_columns` is held to."""
        if flags:
            alert = None
            if flags & 4:
                alert = state.make_alert(step, monitored)
                state.alerts.append(alert)
                if state.on_alert is not None:
                    state.on_alert(alert)
            trace = self._trace
            if trace is not None:
                if flags & 3:
                    trace.emit("interval_adapted", task=state.name,
                               shard=self._trace_shard, step=step,
                               interval=interval, grew=bool(flags & 1),
                               reset=bool(flags & 2), beta=beta)
                if alert is not None:
                    trace.emit("violation", task=state.name,
                               shard=self._trace_shard, step=step,
                               value=alert.value,
                               threshold=alert.threshold)

    def _fan_out_columns(self, res: ColumnBatchResult,
                         estimates: dict[tuple[int, int], float]) -> None:
        """An engine service's alert and trace fan-out, of a batch's
        flagged offers at once (``res.event_*``, in tick order, and their
        violating subset ``res.viol_*``): the alerts go to the log, the
        count column and the count sink as columns, the trace gets the
        batch as one record block, and only then is an :class:`Alert`
        built and a callback run, for the rows that carry one.
        ``estimates`` holds a quantile row's ``p_q`` as of its violating
        offer ``(row, step)`` — what it alerts with, see
        :meth:`TaskState.make_alert`.
        """
        engine = self._soa
        rows, steps, values = res.viol_rows, res.viol_steps, res.viol_values
        thresholds = engine.alert_threshold[rows]
        if estimates:
            values = values.copy()
            for at, offer in enumerate(zip(rows.tolist(), steps.tolist())):
                if offer in estimates:
                    values[at] = estimates[offer]
        if len(rows):
            self._alert_log.append(rows, steps, values, thresholds)
            np.add.at(engine.alerts, rows, 1)
            if self._alert_count_sink is not None:
                self._alert_count_sink(len(rows))
        trace = self._trace
        if trace is not None:
            block = np.empty(len(res.event_rows), dtype=DECISION_BLOCK)
            block["row"] = res.event_rows
            block["step"] = res.event_steps
            block["interval"] = res.event_intervals
            block["flags"] = res.event_flags
            block["beta"] = res.event_betas
            # A violating offer reports its monitored value, or the
            # estimate that replaced it, against its row's threshold.
            block["value"] = res.event_values
            block["threshold"] = engine.alert_threshold[res.event_rows]
            if estimates:
                block["value"][np.flatnonzero(res.event_flags & 4)] = values
            trace.emit_block(block, self._row_names, self._trace_shard)
        callbacks = self._alert_callbacks
        if callbacks and len(rows):
            for row, step, value, threshold in zip(
                    rows.tolist(), steps.tolist(), values.tolist(),
                    thresholds.tolist()):
                on_alert = callbacks.get(row)
                if on_alert is None:
                    continue
                try:
                    on_alert(Alert(time_index=step, value=value,
                                   threshold=threshold))
                except Exception:
                    # The rows have advanced and the alerts are logged:
                    # one caller's failing callback must not cost the
                    # others theirs, or the batch its place in the
                    # ledger.
                    logger.exception(
                        "on_alert of task %r raised at step %d",
                        self._row_names[row], step)

    def offer_columns(self, rows: Any, steps: Any, values: Any,
                      names: Sequence[str | None] | None = None,
                      ) -> tuple[int, int, int, np.ndarray]:
        """Apply a decoded offer batch as columns (the server data path).

        ``rows`` are engine row ids (``-1`` = unresolved); rows that are
        negative or retired are stepped by name instead, through
        ``names`` (parallel to the columns) and :meth:`_offer_soa`, which
        is always correct — an unknown or missing name counts as
        rejected, mirroring the per-offer error contract of :meth:`offer`.

        Returns ``(applied, consumed, rejected, consumed_intervals)``;
        ``applied`` includes not-due offers, ``consumed_intervals`` holds
        one post-adaptation interval per consumed offer (for telemetry
        histograms).

        Tasks are independent but for trigger edges, so the batch is
        applied tick-wise, not offer by offer — except where a watcher in
        it fires: see :meth:`_watch_cuts`.
        """
        if self._soa is None:
            raise ConfigurationError(
                "offer_columns requires an SoA-enabled service")
        rows = np.asarray(rows, dtype=np.int64)
        steps = np.asarray(steps, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not self._watchers or not len(rows):
            return self._apply_columns(rows, steps, values, names, 0)
        parts: list[tuple[int, int, int, np.ndarray]] = []
        pending: list[dict[str, Any]] = []
        lo = 0
        cuts = self._watch_cuts(rows, steps, values, names)
        for pos, event, cut in cuts + [(len(rows), None, True)]:
            if not cut:
                pending.append(event)
                continue
            if pos > lo:
                parts.append(self._apply_columns(
                    rows[lo:pos], steps[lo:pos], values[lo:pos], names, lo))
                lo = pos
            for earlier in pending:
                self._deliver_edge(earlier)
            pending.clear()
            if event is not None:
                self._deliver_edge(event)
        if len(parts) == 1:
            return parts[0]
        applied, consumed, rejected, intervals = zip(*parts)
        return (sum(applied), sum(consumed), sum(rejected),
                np.concatenate(intervals))

    def _watch_cuts(self, rows: np.ndarray, steps: np.ndarray,
                    values: np.ndarray,
                    names: Sequence[str | None] | None,
                    ) -> list[tuple[int, dict[str, Any] | None, bool]]:
        """Run a batch's watchers ahead of the batch; returns where their
        edges fall, as ``(position, event, cut)`` in arrival order.

        A watcher depends on its own task's stream alone, so every
        watched offer of the batch can be observed first. An edge belongs
        between the offers before its position and the rest: ``cut``
        says the batch has to be split there for that to hold — the
        edge's trigger guards a task of this service, and a later offer
        of the batch is for its row, or goes by name (not resolved
        here). Other edges only have to keep their order. A watched task
        offered by name runs its own watcher in :meth:`_offer_soa`: it
        is cut out as a batch of one (``event`` None at both ends).
        """
        engine = self._soa
        on_row = engine.active[rows] & (rows >= 0)
        usable = np.isfinite(values)
        by_name = np.flatnonzero(~on_row & usable)
        last_by_name = int(by_name[-1]) if len(by_name) else -1
        watched = np.flatnonzero(engine.watched[rows] & on_row & usable)
        cuts: list[tuple[int, dict[str, Any] | None, bool]] = []
        for pos, row, step, value in zip(
                watched.tolist(), rows[watched].tolist(),
                steps[watched].tolist(), values[watched].tolist()):
            state = self._soa_rows[row]
            edge = state.watch.observe(value, step)
            if edge is None:
                continue
            guarded = self._guards.get(state.name)
            cut = guarded is not None and (
                last_by_name > pos or bool(np.isin(rows[pos + 1:], [
                    guard.soa_row for guard in guarded.values()]).any()))
            cuts.append((pos, {"op": edge, "trigger": state.name,
                               "step": step, "value": value}, cut))
        if names is not None and len(by_name):
            for pos in by_name.tolist():
                state = self._tasks.get(names[pos])
                if state is not None and state.watch is not None:
                    cuts += (pos, None, True), (pos + 1, None, True)
            cuts.sort(key=lambda cut: cut[0])
        return cuts

    def _apply_columns(self, rows: np.ndarray, steps: np.ndarray,
                       values: np.ndarray,
                       names: Sequence[str | None] | None, offset: int,
                       ) -> tuple[int, int, int, np.ndarray]:
        """:meth:`offer_columns` for a batch no trigger edge falls inside;
        ``names`` is indexed from ``offset``."""
        engine = self._soa
        hooks = self._hooks
        res = engine.run_columns(rows, steps, values,
                                 hooks if engine.derived_rows else None)
        applied, consumed = res.applied, res.consumed
        rejected = res.rejected
        fb_intervals: list[int] = []
        for pos in res.fallback.tolist():  # ascending: arrival order
            name = None if names is None else names[offset + pos]
            if name is None:
                rejected += 1
                continue
            try:
                interval = self._offer_soa(name, float(values[pos]),
                                           int(steps[pos]))
            except (ConfigurationError, ValueError, TypeError):
                rejected += 1
                continue
            applied += 1
            if interval is not None:
                consumed += 1
                fb_intervals.append(interval)
        # The engine advanced and gated its rows' schedules itself; what
        # is left of the per-offer tail is the alert and trace fan-out of
        # the rare flagged steps.
        estimates = hooks.estimates
        if len(res.event_rows if self._trace is not None
               else res.viol_rows):
            self._fan_out_columns(res, estimates)
        estimates.clear()
        intervals = res.consumed_intervals
        if fb_intervals:
            intervals = np.concatenate(
                [intervals, np.asarray(fb_intervals, dtype=np.int64)])
        return applied, consumed, rejected, intervals

    def alerts(self, name: str) -> list[Alert]:
        """Alerts raised by a task so far (chronological)."""
        state = self._state(name)
        if self._soa is None:
            return list(state.alerts)
        if not self._soa.alerts[state.soa_row]:
            return []
        return [Alert(time_index=step, value=value, threshold=threshold)
                for step, value, threshold
                in self._alert_log.of_row(state.soa_row)]

    def alert_count(self, name: str) -> int:
        """How many alerts a task has raised so far — ``len(alerts(name))``
        without building the history."""
        state = self._state(name)
        if self._soa is None:
            return len(state.alerts)
        return int(self._soa.alerts[state.soa_row])

    def samples_taken(self, name: str) -> int:
        """Sampling operations consumed by a task so far."""
        state = self._state(name)
        if self._soa is not None:
            return int(self._soa.samples_taken[state.soa_row])
        return state.samples_taken

    def interval(self, name: str) -> int:
        """A task's current sampling interval (in default intervals)."""
        state = self._state(name)
        if self._soa is not None:
            return int(self._soa.interval[state.soa_row])
        return state.sampler.interval

    def observations(self, name: str) -> int:
        """Values offered while the task was due (sampler observations)."""
        state = self._state(name)
        if self._soa is not None:
            return int(self._soa.observations[state.soa_row])
        return state.sampler.observations

    def task_type(self, name: str) -> str:
        """A task's type: ``"value"``, ``"quantile"`` or ``"entropy"``."""
        return self._state(name).task_type

    def task_estimate(self, name: str) -> float | None:
        """The current substrate estimate behind a typed task.

        Quantile tasks report the estimated ``p_q`` (value frame),
        entropy tasks the windowed entropy in bits; ``None`` for scalar
        tasks — exported through the runtime's ``task_info`` op so
        operators can see what the predicate currently evaluates to
        without waiting for an alert.
        """
        state = self._state(name)
        if state.task_type == "quantile":
            return float(state.substrate.quantile_value())
        if state.task_type == "entropy":
            return float(state.substrate.entropy())
        return None

    def task_type_counts(self) -> dict[str, int]:
        """Registered tasks per task type (telemetry gauge fodder)."""
        counts: dict[str, int] = {}
        for state in self._tasks.values():
            counts[state.task_type] = counts.get(state.task_type, 0) + 1
        return counts

    def snapshot(self) -> dict[str, Any]:
        """Serialise the full service state to a JSON-able dict.

        Captures every registered task's spec, adaptation config, schedule
        position, sampler statistics (Welford state, current interval,
        patience streak), alert history, trigger wiring (guards and
        watchers) and window buffers — everything :meth:`restore` needs to
        resume with identical behaviour. Alert callbacks are not captured.

        The document is columns aligned with ``names`` (module comment
        above ``_GROUPS``; DESIGN.md S31 "snapshots are columns"): an
        engine service reads each off its rows with one gather, the
        scalar oracle walks its samplers, and both write the identical
        document — so its fingerprint is the same whether the service
        ran columnar or scalar. Nothing is written.
        """
        engine = self._soa
        names = list(self._tasks)
        states = list(self._tasks.values())
        if engine is None:
            sampler = sampler_state_columns(
                [state.sampler.state_dict() for state in states])
            next_due = [state.next_due for state in states]
            samples_taken = [state.samples_taken for state in states]
            logged = [len(state.alerts) for state in states]
            history = [alert for state in states for alert in state.alerts]
            alerts = {"step": [a.time_index for a in history],
                      "value": [a.value for a in history],
                      "threshold": [a.threshold for a in history]}
        else:
            rows = np.fromiter(self._soa_rows, dtype=np.int64,
                               count=len(names))
            sampler = engine.rows_state(rows)
            next_due = engine.next_due[rows].tolist()
            samples_taken = engine.samples_taken[rows].tolist()
            logged = engine.alerts[rows].tolist()
            alerts = self._alert_log.columns()
        configs, adaptation = _distinct(state.config for state in states)
        spec = {key: [getattr(state.task, key) for state in states]
                for key in _GROUPS["spec"]}
        spec["direction"] = [way.value for way in spec["direction"]]
        return {
            "version": SNAPSHOT_VERSION,
            "adaptation": _adaptation_to_dict(self._config),
            "adaptations": [_adaptation_to_dict(config)
                            for config in configs],
            "names": names,
            "spec": spec,
            "sampler": sampler,
            "task": {
                "adaptation": adaptation,
                "window": [state.window for state in states],
                "window_kind": [state.window_kind.value
                                for state in states],
                # The running sum is serialised verbatim (not recomputed
                # from the buffer on restore) so a restored task's
                # aggregates are bit-identical to an uninterrupted
                # run's, floating-point accumulation history included.
                "window_sum": [state._window_sum for state in states],
                "next_due": next_due,
                "samples_taken": samples_taken,
                "alerts": logged,
                "trigger_level": [state.trigger_level for state in states],
                "suspend_interval": [state.suspend_interval
                                     for state in states],
            },
            "alerts": alerts,
            "sparse": _sparse_maps(
                (state.name, state.state_dict(self._suspensions(state)))
                for state in states
                if state.substrate is not None or state.watch is not None
                or state.remote_trigger is not None
                or state._window_values),
        }

    @classmethod
    def restore(cls, snapshot: dict[str, Any],
                on_alert: Callable[[str, Alert], None] | None = None,
                soa: bool = False) -> "MonitoringService":
        """Rebuild a service from a :meth:`snapshot` dict.

        Args:
            snapshot: a dict produced by :meth:`snapshot`, stamped
                :data:`SNAPSHOT_VERSION` — the one version this build
                reads; any other is refused, and nothing upgrades it.
            on_alert: optional ``(task_name, alert)`` callback attached to
                every restored task (callbacks cannot be serialised, so
                they are re-wired here).
            soa: restore every task onto a row of an SoA engine
                (columnar hot path); snapshots carry no trace of the flag,
                so any snapshot restores either way.

        A restored service produces the same decision/alert stream as one
        that was never interrupted, given the same subsequent offers. A
        document that is not a snapshot raises
        :class:`~repro.exceptions.ConfigurationError` before a service
        exists.
        """
        version = snapshot.get("version")
        if type(version) is not int or version != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"unsupported snapshot version {version!r}; this build "
                f"reads version {SNAPSHOT_VERSION} only")
        _check_snapshot(snapshot)
        names = snapshot["names"]
        spec, task = snapshot["spec"], snapshot["task"]
        configs = [_adaptation_from_dict(entry)
                   for entry in snapshot["adaptations"]]
        # name -> its TaskState.state_dict(), for the few that have one.
        sparse: dict[str, dict[str, Any]] = {}
        for key, column in snapshot["sparse"].items():
            for name, value in column.items():
                sparse.setdefault(name, {})[key] = value
        specs = [TaskSpec(threshold=threshold, error_allowance=err,
                          default_interval=default_interval,
                          max_interval=max_interval,
                          direction=_DIRECTIONS[direction], name=spec_name)
                 for (threshold, err, default_interval, max_interval,
                      direction, spec_name)
                 in zip(*map(spec.get, _GROUPS["spec"]))]
        plain: dict[str, Any] = {}
        states = [TaskState.from_state_dict(
            sparse.get(name, plain), name=name, task=task_spec,
            config=configs[config], window=window,
            window_kind=_WINDOW_KINDS[kind], _window_sum=window_sum,
            trigger_level=level, suspend_interval=suspend_interval,
            on_alert=None if on_alert is None else partial(on_alert, name))
            for (name, task_spec, config, window, kind, window_sum, level,
                 suspend_interval)
            in zip(names, specs, *map(task.get, (
                "adaptation", "window", "window_kind", "window_sum",
                "trigger_level", "suspend_interval")))]

        service = cls(_adaptation_from_dict(snapshot["adaptation"]),
                      soa=soa)
        engine = service._soa
        rows = repeat(None) if engine is None else engine.add_tasks(
            specs, [state.config for state in states])
        for state, row in zip(states, rows):
            service._register(state, row)
        logged = task["alerts"]
        alerts = list(map(snapshot["alerts"].get, _GROUPS["alerts"]))
        suspensions = snapshot["sparse"]["trigger_suspensions"]
        # What columns hold goes straight into the columns.
        if engine is None:
            history = [Alert(time_index=step, value=float(value),
                             threshold=float(threshold))
                       for step, value, threshold in zip(*alerts)]
            lo = 0
            for at, (state, count) in enumerate(zip(states, logged)):
                state.sampler.load_state_dict(
                    sampler_state_dict(snapshot["sampler"], at))
                state.next_due = task["next_due"][at]
                state.samples_taken = task["samples_taken"][at]
                state.trigger_suspensions = suspensions.get(state.name, 0)
                state.alerts = history[lo:lo + count]
                lo += count
        else:
            rows = np.asarray(rows, dtype=np.int64)
            engine.load_rows_state(rows, snapshot["sampler"])
            engine.next_due[rows] = task["next_due"]
            engine.samples_taken[rows] = task["samples_taken"]
            engine.alerts[rows] = logged
            service._alert_log.append(np.repeat(rows, logged), *alerts)
            row_of = dict(zip(names, rows.tolist()))
            engine.suspensions[[row_of[name] for name in suspensions]] = (
                list(suspensions.values()))
        return service
