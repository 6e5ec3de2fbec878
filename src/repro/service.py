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
from bisect import bisect_right
from functools import partial, reduce
from dataclasses import dataclass
from math import isfinite, nan
from collections import deque
from itertools import accumulate, chain
from operator import add, index, sub
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.adaptation import (AdaptationConfig, SamplingDecision,
                                   ViolationLikelihoodSampler)
from repro.core.soa import (_DTYPES, MAX_WINDOW, SAMPLER_STATE, STEP_MAX,
                            STEP_MIN, ColumnBatchResult, SoaSamplerEngine,
                            _array, _listed, _read, _read_only, _split,
                            sampler_state_columns, sampler_state_dict)
from repro.core.substrates import (DEFAULT_ENTROPY_WINDOW,
                                   DEFAULT_SKETCH_WINDOW, EntropyEstimator,
                                   QuantileEstimator)
from repro.core.task import TaskSpec, spec_columns
from repro.core.windowed import AggregateKind
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR
from repro.telemetry.trace import DECISION_BLOCK
from repro.exceptions import ConfigurationError
from repro.triggers.channel import TriggerWatcher
from repro.triggers.plan import TriggerPlan
from repro.types import Alert, ThresholdDirection

__all__ = ["MonitoringService", "TaskState", "SNAPSHOT_VERSION",
           "offer_pass", "snapshot_task_names"]

logger = logging.getLogger(__name__)

AlertCallback = Callable[[Alert], None]

SNAPSHOT_VERSION = 6
"""Format version stamped into :meth:`MonitoringService.snapshot` dicts:
6 is the columnar document whose typed-task, guard, watcher and window
state are columns too, whose sampler holds the coordination product
as a mantissa and an exponent, and whose windows hold every offer and
no running sum, and the only version
:meth:`MonitoringService.restore` reads (DESIGN.md S31 "one reader").
Not the checkpoint *file* format's
(:data:`repro.runtime.checkpoint.CHECKPOINT_VERSION`)."""


# -- the snapshot document (DESIGN.md S31 "snapshots are columns") ------
#
# A :meth:`MonitoringService.snapshot` document is columns.
# What every task has is one column per key, aligned with ``names``
# (registration order), grouped by where it lives: ``spec`` (the TaskSpec
# fields), ``sampler`` (``core.soa.SAMPLER_STATE``) and ``task`` (schedule,
# window, guard level, alert count). ``alerts`` are three flat columns in
# ``names`` order, each task's oldest first, cut by ``task.alerts``. What
# few tasks have is columns too, under ``sparse``: one group per kind of
# state, keyed by ``task`` — positions into ``names``, ascending, so a
# group is in registration order — and left out when it has no member. A
# group's membership is its kind: a task in ``quantile`` is a quantile
# task, whose two sketches are sub-groups, ``sealed`` holding only the
# tasks whose ``has_sealed`` is up. A variable-length field is CSR: a
# length column, one element per member, and a flat column holding every
# member's items in turn.
#
# The columns an engine holds — ``sampler``, ``task.next_due`` /
# ``samples_taken`` / ``alerts`` and ``alerts`` — are written as read-only
# i8 / f8 / b1 arrays, by both services. The registration columns —
# ``names``, ``spec`` and the rest of ``task`` — are built once per
# registration change (``MonitoringService._registration``) and written as
# read-only i8 / f8 arrays when every element is exactly an int or exactly
# a float, else as lists of the caller's elements (strings, an int among
# floats). The ``sparse`` columns are read-only arrays. ``restore`` reads
# either form of any column (a checkpoint hands back arrays, a JSON frame
# lists).
#
# ``_SCHEMA`` states the layout once: ``_check_snapshot`` walks it, and
# ``snapshot()`` and ``restore`` read their key lists and element types
# off it.
_DIRECTIONS = {d.value: d for d in ThresholdDirection}
_WINDOW_KINDS = {k.value: k for k in AggregateKind}


class _Column(NamedTuple):
    """One column of the table: its element types ``kinds`` (an array's
    dtype is the first one's, ``core.soa._DTYPES``); a range
    rule — ``within(values, group, document)``, a mask true where an
    element of the column (an array, a string column's list) is inside,
    or True when all are, and ``what`` a refusal says an element outside
    is not; for a flat CSR column, the length column ``cut`` that cuts
    it (declared before it); ``wide`` if a list's ints may pass 64
    bits."""

    kinds: tuple[type, ...]
    within: Callable[[Any, Any, Mapping[str, Any]], Any] | None = None
    what: str = ""
    cut: str | None = None
    wide: bool = False


class _Group(NamedTuple):
    """A map of columns, and of sub-groups after them, each column one
    element per member: per task — whom a range refusal names — unless
    ``members(where, group, outer, document)`` counts them (``outer``
    the map the group sits in), checking what they rest on. An
    ``optional`` group holds groups only, each present only when it has
    a member."""

    columns: dict[str, Any]
    members: Callable[[str, Any, Any, Mapping[str, Any]], int] | None = None
    optional: bool = False


# The columns that are their element types and nothing more.
_NUMBER, _INT, _STR = _Column((float, int)), _Column((int,)), _Column((str,))
_FLOAT, _BOOL = _Column((float,)), _Column((bool,))


def _fail(what: str) -> None:
    raise ConfigurationError(f"malformed snapshot: {what}")


def _check_keys(where: str, have: Any, want: Iterable[str],
                optional: bool = False) -> None:
    if not isinstance(have, dict):
        _fail(f"{where} is not a map")
    strays = set(have) - set(want) if optional else set(have) ^ set(want)
    if strays:
        _fail(f"{where} has {'' if optional else 'missing or '}unknown "
              f"keys {sorted(strays, key=repr)}")


def _check_column(where: str, column: Any, kinds: tuple[type, ...],
                  length: int | None, wide: bool = False) -> Any:
    """A list of ``kinds`` elements (ints within 64 bits unless
    ``wide``), or a 1-D array of the dtype of one — whose elements need
    no scan — ``length`` long unless that is ``None``. Returns the
    column, an int list as the ``i8`` array its check made."""
    array = isinstance(column, np.ndarray)
    if not (array and column.ndim == 1 or isinstance(column, list)) \
            or length not in (None, len(column)):
        _fail(f"column {where} is not a list or a 1-D array"
              + ("" if length is None else f" of {length} elements"))
    if array and column.dtype not in [_DTYPES[kind] for kind in kinds
                                      if kind in _DTYPES]:
        _fail(f"column {where} holds {column.dtype} elements, not "
              + " or ".join(kind.__name__ for kind in kinds))
    if not array and not set(map(type, column)) <= set(kinds):
        _fail(f"column {where} holds an element that is not "
              + " or ".join(kind.__name__ for kind in kinds))
    if not array and kinds == _INT.kinds and not wide:
        try:
            return np.asarray(column, dtype=np.int64)
        except OverflowError:
            _fail(f"column {where} holds an integer beyond 64 bits")
    return column


def _check_range(where: str, column: Any, inside: Any, what: str,
                 owners: Sequence[str] | None = None) -> None:
    """Refuse the first element of ``column`` that ``inside`` leaves
    out, naming its task from ``owners``."""
    outside = () if inside is True else np.flatnonzero(~np.asarray(inside))
    if len(outside):
        at = outside.item(0)
        owner = "" if owners is None else f" (task {owners[at]!r})"
        _fail(f"column {where} holds {_listed(column)[at]!r}{owner}, "
              f"not {what}")


def _among(legal: Mapping[str, Any]) -> _Column:
    """A string column of ``legal``'s keys: one set difference of the
    list, and a mask only when it holds a stray."""
    def within(column: list[str], group: Any, document: Any) -> Any:
        strays = set(column) - legal.keys()
        return not strays or [value not in strays for value in column]
    return _STR._replace(within=within, what=f"one of {sorted(legal)}")


def _positions(where: str, group: Any, outer: Any,
               document: Mapping[str, Any]) -> int:
    """One per position of the group's ``task`` column, which must point
    into ``names`` and ascend strictly (registration order)."""
    at = _check_column(f"{where}.task", group["task"], _INT.kinds, None)
    _check_range(f"{where}.task", at, (at >= 0) & (at < len(
        document["names"])), "a position in names")
    if (np.diff(at) <= 0).any():
        _fail(f"column {where}.task is not ascending: a task repeated "
              f"or out of registration order")
    return len(at)


def _held_steps(steps: np.ndarray, group: Any,
                document: Mapping[str, Any]) -> np.ndarray:
    """Where a window's steps are what a window can hold: each after
    the one before it, and after its window's newest step less the
    task's window (a subtraction that wraps refuses)."""
    lengths = np.asarray(group["length"], dtype=np.int64)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    newest = steps[np.cumsum(lengths) - 1][owner]
    window = np.asarray(document["task"]["window"])[group["task"]][owner]
    rising = np.r_[True, (steps[1:] > steps[:-1]) | (owner[1:] > owner[:-1])]
    return rising & (steps > newest - window)


_COUNT = _INT._replace(within=lambda values, group, document: values >= 0,
                       what="a count (>= 0)")
_STEPS = _INT._replace(within=lambda values, group, document: values >= 1,
                       what=">= 1")
# A quantile task's sketch: count, sum, the zero bucket, the extremes
# (written as zero for an empty one), and the buckets as CSR.
_SKETCH_COLUMNS = {
    "count": _COUNT, "total": _FLOAT, "zero_count": _COUNT, "min": _FLOAT,
    "max": _FLOAT, "min_value": _FLOAT, "relative_error": _FLOAT,
    "pos_length": _INT, "pos_key": _INT._replace(cut="pos_length"),
    "pos_count": _COUNT._replace(cut="pos_length"), "neg_length": _INT,
    "neg_key": _INT._replace(cut="neg_length"),
    "neg_count": _COUNT._replace(cut="neg_length")}

_SCHEMA: dict[str, _Group] = {
    "spec": _Group({
        "threshold": _NUMBER, "error_allowance": _NUMBER,
        "default_interval": _NUMBER, "max_interval": _INT,
        "direction": _among(_DIRECTIONS), "name": _STR}),
    # Every int column counts something, but the interval, the last
    # sample's step and the coordination product's exponent; ``var`` is
    # clamped where it is read, so any value is one.
    "sampler": _Group({
        **{key: _COUNT if kind is int else _NUMBER if kind is float
           else _BOOL for key, (_, kind) in SAMPLER_STATE.items()},
        "interval": _INT._replace(within=lambda values, group, document: (
            values >= 1) & (values <= np.asarray(document["spec"][
                "max_interval"])), what="within 1..spec.max_interval"),
        "last_time": _INT, "coord_err_exp": _INT,
        # math.frexp's mantissa, 1.0 for the empty product.
        "coord_err_mant": _NUMBER._replace(
            within=lambda values, group, document: (values >= 0.5)
            & (values <= 1.0), what="in [0.5, 1]"),
        "error_allowance": _NUMBER._replace(
            within=lambda values, group, document: (values >= 0.0)
            & (values <= 1.0), what="in [0, 1]")}),
    "task": _Group({
        "adaptation": _INT._replace(within=lambda values, group, document: (
            values >= 0) & (values < len(document["adaptations"])),
            what="an index into adaptations"),
        "window": _INT._replace(within=lambda values, group, document: (
            values >= 1) & (values <= MAX_WINDOW),
            what=f"within 1..{MAX_WINDOW}"),
        "window_kind": _among(_WINDOW_KINDS),
        "next_due": _INT, "samples_taken": _COUNT,
        "alerts": _COUNT, "trigger_level": _NUMBER,
        "suspend_interval": _STEPS}),
    # Each task's history in turn, as many as its task.alerts.
    "alerts": _Group({"step": _INT, "value": _NUMBER, "threshold": _NUMBER},
                     lambda where, group, outer, document: int(np.sum(
                         document["task"]["alerts"]))),
    "sparse": _Group({
        "quantile": _Group({
            "task": _INT, "value_threshold": _FLOAT, "quantile": _FLOAT,
            "window": _INT, "relative_error": _FLOAT,
            # An epoch seals as it fills (QuantileEstimator.update).
            "in_epoch": _INT._replace(within=lambda values, group, document: (
                values >= 0) & (values < np.asarray(group["window"])),
                what="in [0, sparse.quantile.window)"),
            "has_sealed": _BOOL,
            "current": _Group(_SKETCH_COLUMNS, lambda where, group, outer,
                              document: len(outer["task"])),
            "sealed": _Group(_SKETCH_COLUMNS, lambda where, group, outer,
                             document: int(np.sum(outer["has_sealed"])))},
            _positions),
        "entropy": _Group({
            "task": _INT, "value_threshold": _FLOAT, "window": _INT,
            "bin_width": _FLOAT,
            # The ring drops a symbol per append past its window.
            "length": _INT._replace(within=lambda values, group, document:
                                    values <= np.asarray(group["window"]),
                                    what="in [0, sparse.entropy.window]"),
            # A symbol may be any int (an extreme value's, over a fine
            # bin); a list of such stays JSON.
            "symbols": _INT._replace(cut="length", wide=True)}, _positions),
        "guard": _Group({"task": _INT, "remote_trigger": _STR,
                         "armed": _BOOL, "suspensions": _COUNT}, _positions),
        # TriggerWatcher.state_dict's five; an absent last transition is
        # its flag down and the step written as zero.
        "watch": _Group({
            "task": _INT, "level": _FLOAT, "hysteresis": _FLOAT,
            "min_hold": _INT, "armed": _BOOL, "last_transition": _INT,
            "transitioned": _BOOL}, _positions),
        # A window holds one offer per step of (newest - window, newest]
        # (DESIGN.md S17); an empty one is not written.
        "window_values": _Group({
            "task": _INT, "length": _INT._replace(
                within=lambda values, group, document: (values >= 1) & (values
                    <= np.asarray(document["task"]["window"])[group["task"]]),
                what="in [1, task.window]"),
            "step": _INT._replace(cut="length", within=_held_steps, what=(
                "ascending, after its window's newest step less the "
                "window")),
            "value": _FLOAT._replace(cut="length")}, _positions),
    }, optional=True),
}


def _walk(where: str, group: Any, schema: _Group, outer: Any,
          document: Mapping[str, Any]) -> None:
    """One group's checks, each in the order the next relies on: its key
    set; its members; each column's shape — a list of its element types
    or a 1-D array of their dtype, one element per member, a flat CSR
    column as many as its lengths (each >= 0) sum to; then each range
    rule, and each sub-group present, the same way."""
    _check_keys(f"group {where!r}", group, schema.columns, schema.optional)
    owners = document["names"] if schema.members is None else None
    members = len(document["names"]) if owners is not None else \
        schema.members(where, group, outer, document)
    checked: dict[str, Any] = {}  # each column as its check left it
    for key, entry in schema.columns.items():
        if type(entry) is _Column and entry.cut is None:
            checked[key] = _check_column(f"{where}.{key}", group[key],
                                         entry.kinds, members)
        elif type(entry) is _Column:
            by, column = f"{where}.{entry.cut}", group[key]
            lengths = checked[entry.cut]
            _check_range(by, lengths, lengths >= 0, "a length (>= 0)")
            total = int(lengths.sum())
            if isinstance(column, (list, np.ndarray)) \
                    and len(column) != total:
                _fail(f"column {where}.{key} holds {len(column)} "
                      f"elements, but {by} sums to {total}")
            checked[key] = _check_column(f"{where}.{key}", column,
                                         entry.kinds, total, entry.wide)
    for key, entry in schema.columns.items():
        if type(entry) is _Group and key in group:
            _walk(f"{where}.{key}", group[key], entry, group, document)
        elif type(entry) is _Column and entry.within is not None:
            column = checked[key]
            _check_range(f"{where}.{key}", column, entry.within(
                column if entry.kinds == _STR.kinds else np.asarray(column),
                group, document), entry.what, owners)


def _check_snapshot(snapshot: Any) -> None:
    """Refuse a document that is not a version-5 snapshot — not a map,
    another stamp, a wrong key set, a ragged or mistyped column, a value
    outside its range, positions or names that point nowhere — with a
    :class:`ConfigurationError` naming the culprit, before a service
    exists. The table's walk makes every per-column check; what spans
    groups is checked here."""
    if not isinstance(snapshot, dict):
        _fail("the document is not a map")
    version = snapshot.get("version")
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot version {version!r}; this build "
            f"reads version {SNAPSHOT_VERSION} only")
    _check_keys("the document", snapshot,
                {"version", "adaptation", "adaptations", "names", *_SCHEMA})
    names = snapshot["names"]
    _check_column("names", names, _STR.kinds, None)
    if len(set(names)) != len(names):
        _fail("names holds a task twice")
    if not isinstance(snapshot["adaptations"], list):
        _fail("adaptations is not a list")
    for group, schema in _SCHEMA.items():
        _walk(group, snapshot[group], schema, snapshot, snapshot)
    quantile, entropy, windowed = (_listed(snapshot["sparse"].get(
        kind, {"task": []})["task"]) for kind in (
            "quantile", "entropy", "window_values"))
    both = np.intersect1d(quantile, entropy)
    if len(both):
        _fail(f"task {names[int(both.item(0))]!r} is in both "
              f"sparse.quantile and sparse.entropy")
    # Only a windowed task has a window.
    _check_range("sparse.window_values.task", windowed, np.asarray(
        snapshot["task"]["window"])[windowed] > 1,
        "a windowed task's position (task.window > 1)",
        [names[at] for at in windowed])


def _ordered(group: Mapping[str, Any], schema: _Group) -> list[Any]:
    """A checked group's columns in the table's order — a document's own
    key order is its writer's."""
    return [group[key] for key in schema.columns]


def _no_members(schema: _Group) -> dict[str, Any]:
    """A group with no member — of ``sparse``, every group with none:
    what ``restore`` reads for a group a document leaves out."""
    return {key: _no_members(entry) if type(entry) is _Group else []
            for key, entry in schema.columns.items()}


def _typed(values: list[Any], column: _Column) -> Any:
    """Python values as a table column: a read-only array of its first
    element type's dtype, strings a list."""
    kinds = column.kinds
    return values if kinds == _STR.kinds else _array(values, kinds[0])


def snapshot_task_names(snapshot: Mapping[str, Any]) -> list[str]:
    """The tasks a :meth:`MonitoringService.snapshot` document carries,
    in registration order (none for ``{}``, a shard entry with no
    snapshot), so nobody outside this module indexes a snapshot's
    insides."""
    return list(snapshot.get("names", ()))


def _distinct(configs: Sequence[AdaptationConfig],
              ) -> tuple[list[AdaptationConfig], np.ndarray]:
    """The distinct ``configs`` in first-use order, and each one's index
    among them — a snapshot's ``adaptations`` and ``task.adaptation``.
    Each config *object* is hashed once: most tasks share the service's
    default, and a frozen dataclass hashes every field per call."""
    ids = list(map(id, configs))
    seen: dict[AdaptationConfig, int] = {}
    at = {key: seen.setdefault(config, len(seen))  # first-use order
          for key, config in dict(zip(ids, configs)).items()}
    return list(seen), np.array(list(map(at.__getitem__, ids)), np.int64)


def _column(values: list[Any]) -> Any:
    """A registration column as the checkpoint writer packs it: a
    read-only ``f8`` / ``i8`` array when every element is exactly a
    ``float`` / exactly an ``int`` within 64 bits, else ``values``
    itself — strings, or an int among floats, which the writer keeps as
    JSON. One exact-type scan per column per registration change."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and (kind := kinds.pop()) in (float, int):
        try:
            return _read_only(np.array(values, _DTYPES[kind]))
        except OverflowError:  # an int wider than 64 bits
            pass
    return values


def _handed(column: Any) -> Any:
    """A kept registration column as one snapshot gets it: a read-only
    view of an array (which nobody can make writeable), a copy of a
    list — so the document is a value whatever its holder does to it."""
    if isinstance(column, np.ndarray):
        return column.view()
    return list(column)


@dataclass(slots=True)
class TaskState:
    """Bookkeeping for one registered task.

    A task holds only the containers it uses (DESIGN.md S31): a window
    list once a windowed task of a scalar service takes an offer, an
    alert list on a scalar service. A task on an engine service holds
    neither: its window, if any, is engine columns.

    Attributes:
        name: task identifier.
        task: the threshold task.
        config: the task's adaptation tunables.
        sampler: the adaptive sampler driving the schedule — on a scalar
            service; ``None`` on an engine service, whose row is it.
        next_due: grid step of the next wanted sample.
        samples_taken: sampling operations consumed so far.
        alerts: alerts raised so far — on a scalar service; ``None`` on
            an engine service, which keeps every task's in its one
            columnar log.
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
            service's, and so is the window (the engine keeps a windowed
            row's in its side table). Substrate, watcher and armed flag
            stay here either way.
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
    alerts: list[Alert] | None = None
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
    # A scalar service's windowed task's (step, value) entries, oldest
    # first, or None until it takes its first offer.
    _window: deque[tuple[int, float]] | None = None

    def take(self, step: int, value: float) -> None:
        """Enter an offer into a scalar service's windowed task's window,
        if its step is after the newest one the window holds, and drop
        the entries that fall out of ``(step - window, step]`` from its
        head — the rule of DESIGN.md S17 stated as plainly as it can be,
        the reference for the engine's rings."""
        held = self._window = self._window or deque()
        if not held or step > held[-1][0]:
            held.append((step, value))
            while held[0][0] <= step - self.window:
                held.popleft()

    def window_read(self, step: int) -> float:
        """The aggregate a sample at ``step`` reads off the window: of
        the entries it holds, those at or before ``step``. A SUM or MEAN
        adds them one after another from the oldest, a MAX or MIN zero
        reads ``+0.0``, and a read of no entry is NaN (which the sampler
        refuses)."""
        values = [value for at, value in self._window if at <= step]
        kind = self.window_kind
        if not values:
            return nan
        if kind in (AggregateKind.MAX, AggregateKind.MIN):
            return (max if kind is AggregateKind.MAX else min)(values) + 0.0
        total = reduce(add, values, -0.0)
        return total / len(values) if kind is AggregateKind.MEAN else total

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


class _RowHooks:
    """What :meth:`SoaSamplerEngine.run_columns` calls back for marked
    rows, a quantile or entropy task's: their substrates stay on the
    :class:`TaskState`, so the tick asks for the monitored scalar instead
    of the task leaving the tick. It reads the engine's row map, every
    service's on the engine."""

    __slots__ = ("states", "estimates")

    def __init__(self, states: dict[int, TaskState]) -> None:
        self.states = states
        # (row, step) -> a quantile task's p_q as of a violating offer:
        # the alert is built after the batch, when the substrate has
        # absorbed the row's later occurrences.
        self.estimates: dict[tuple[int, int], float] = {}

    def absorb(self, rows: np.ndarray, values: np.ndarray) -> None:
        states = self.states
        for row, value in zip(rows.tolist(), values.tolist()):
            states[row].substrate.update(value)

    def monitored(self, rows: np.ndarray, steps: np.ndarray,
                  values: np.ndarray) -> list[float]:
        """Each row's monitored statistic: an entropy task's windowed
        entropy, a quantile task's exceedance rate (as the scalar
        service's ``offer`` reads them)."""
        states, estimates, read = self.states, self.estimates, []
        for row, step in zip(rows.tolist(), steps.tolist()):
            state = states[row]
            substrate = state.substrate
            if state.task_type == "entropy":
                read.append(substrate.entropy())
                continue
            read.append(rate := substrate.exceedance(state.value_threshold))
            if state.task.violated(rate):
                # First writer wins: a later offer repeating the step is
                # rejected by the sampler and must not replace it.
                estimates.setdefault((row, step), substrate.quantile_value())
        return read


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

    def columns(self, rows: int) -> dict[str, np.ndarray]:
        """Every entry as a snapshot's ``alerts`` columns: grouped by
        row, rows ascending — registration order, as rows are handed out
        in it and never reused — and each row's oldest first. One stable
        argsort and one gather per column, into a read-only array of its
        own. ``rows`` bounds the row ids (the engine's ``len``): under
        2**16 the sort key is ``uint16``, which numpy radix-sorts, and a
        stable sort on a key of the same order is the same permutation."""
        key = np.uint16 if rows <= 1 << 16 else np.int64
        order = np.argsort(self.rows.astype(key), kind="stable")
        entries = self._entries[:self.size]
        return {key: _read_only(entries[key][order])
                for key in _SCHEMA["alerts"].columns}

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
    # Trigger-edge sink (same lifecycle as traces): what hosts the
    # service attaches a callable to route edges past it (WorkerHost:
    # its other shards, then its outbox). The service's own guards need
    # none (_deliver_edge).
    _trigger_sink: Callable[[dict[str, Any]], None] | None = None
    # Alert-count sink (same lifecycle again): what hosts an engine
    # service counts the alerts of each batch through it.
    _alert_count_sink: Callable[[int], None] | None = None

    def __init__(self, config: AdaptationConfig | None = None,
                 soa: bool | SoaSamplerEngine = False):
        self._config = config or AdaptationConfig()
        self._tasks: dict[str, TaskState] = {}
        # trigger name -> the tasks of this service guarded on it, by
        # name (see _index_guard): whom an edge of that trigger flips.
        self._guards: dict[str, dict[str, TaskState]] = {}
        self._watchers = 0  # tasks carrying a TriggerWatcher
        engine = soa if isinstance(soa, SoaSamplerEngine) else (
            SoaSamplerEngine() if soa else None)
        self._soa = engine
        # An engine service's rows are tagged with its holder number. Its
        # row -> task state map and its row -> task name list are the
        # engine's, shared with every service on it: the name list holds
        # removed tasks' too — rows are never reused, so it only grows,
        # and it is what the trace names a row by.
        self._holder = 0
        self._soa_rows: dict[int, TaskState] = {}
        self._row_names: list[str] = []
        if engine is not None:
            engine.holders += 1
            self._holder = engine.holders
            self._soa_rows = engine.row_states
            self._row_names = engine.row_names
        self._hooks = _RowHooks(self._soa_rows)
        # An engine service's alert history, and the rows whose task
        # came with a caller's on_alert: the only alerts built as they
        # are raised.
        self._alert_log = _AlertLog()
        self._alert_callbacks: dict[int, AlertCallback] = {}
        # The snapshot's registration columns, or None until the next
        # snapshot builds them (_registration).
        self._columns: dict[str, Any] | None = None
        # The last document snapshot() built, handed out again until a
        # mutator clears it at its entry (DESIGN.md S31).
        self._document: dict[str, Any] | None = None

    # -- SoA engine plumbing (DESIGN.md S31) ----------------------------
    #
    # A service is all rows or all scalar from construction. With
    # ``soa=True`` every task — plain, windowed, quantile, entropy,
    # guarded, watched — is a row of a shared
    # :class:`~repro.core.soa.SoaSamplerEngine` from registration to
    # removal and has no scalar sampler; without, every task is stepped
    # through its own :class:`ViolationLikelihoodSampler` by the
    # reference :meth:`offer`. Behaviour — and snapshots — are identical
    # either way. ``soa`` may also be an engine to hold the rows in, one
    # other services hold rows of too (a worker host's shards share one,
    # so a pass over their queues ticks once: :func:`offer_pass`).

    def _register(self, states: list[TaskState],
                  rows: Sequence[int] | None = None) -> None:
        """Take ``states`` in, in order; on an engine service onto fresh
        rows, or onto ``rows`` when the caller allocated them (a
        restore's, in bulk). What every task has is a bulk update, and
        so are the windowed rows' rings; the per-task work — row marks,
        floor, hooks, guard index, alert threshold, callback — runs only
        for the tasks that have any, as a plain task's fresh row already
        holds what it needs."""
        self._columns = self._document = None
        self._tasks.update((state.name, state) for state in states)
        engine = self._soa
        if engine is None:
            for state in states:
                state.sampler = ViolationLikelihoodSampler(state.task,
                                                           state.config)
                state.alerts = []
        else:
            if rows is None:
                rows = [engine.add_task(state.task, state.config,
                                        self._holder) for state in states]
            for state, row in zip(states, rows):
                state.soa_row = row
            # Rows are handed out in order.
            self._row_names.extend(state.name for state in states)
            self._soa_rows.update(zip(rows, states))
            windowed = [state for state in states if state.window > 1]
            if windowed:
                engine.set_windows(*(_read(windowed, key) for key in (
                    "soa_row", "window", "window_kind")))
        for state in states:
            if (state.substrate is None and state.window == 1
                    and state.watch is None and state.remote_trigger is None
                    and state.on_alert is None):
                continue
            self._watchers += state.watch is not None
            self._index_guard(state, True)
            if engine is None:
                continue
            row = state.soa_row
            typed = state.task_type != "value"
            if typed or state.watch is not None:
                engine.mark_row(row, derived=typed,
                                watched=state.watch is not None)
            if state.task_type == "quantile":
                # Alerts are in the value frame (TaskState.make_alert).
                engine.alert_threshold[row] = state.value_threshold
            if state.on_alert is not None:
                self._alert_callbacks[row] = state.on_alert
            if state.remote_trigger is not None:
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

    @property
    def holder(self) -> int:
        """The number an engine service tags its rows with in the
        engine's ``holder`` column (0 on a scalar service)."""
        return self._holder

    def retire(self) -> None:
        """Retire every row of an engine service, as :meth:`remove_task`
        retires one: what a worker host does to a shard that leaves it.
        Rows are never reused, so a retired row keeps its columns (its
        window ring excepted) until the engine goes; the service is spent
        and takes no more offers."""
        for state in self._tasks.values():
            self._soa.deactivate(state.soa_row)
            del self._soa_rows[state.soa_row]

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
        self._trace = trace
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
        if not 1 <= window <= MAX_WINDOW:
            raise ConfigurationError(
                f"window must be within 1..{MAX_WINDOW}, got {window}")
        self._register([TaskState(name=name, task=task,
                                  config=config or self._config,
                                  window=window, window_kind=window_kind,
                                  on_alert=on_alert)])

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
        self._register([TaskState(
            name=name, task=spec, config=config or self._config,
            on_alert=on_alert, task_type="quantile",
            value_threshold=float(threshold), substrate=substrate)])

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
        self._register([TaskState(
            name=name, task=spec, config=config or self._config,
            on_alert=on_alert, task_type="entropy", substrate=substrate)])

    def remove_task(self, name: str) -> None:
        """Unregister a task (live-runtime tenant churn).

        Any task of this service guarded on the removed one loses its
        guard and falls back to pure violation-likelihood scheduling — a
        guard with no edge source left would otherwise freeze the
        dependent task at whatever armed state the last edge left.

        Raises :class:`~repro.exceptions.ConfigurationError` when the task
        is unknown.
        """
        self._columns = self._document = None
        state = self._state(name)  # must exist
        del self._tasks[name]
        self._watchers -= state.watch is not None
        self._index_guard(state, False)
        if self._soa is not None:
            # The one place a row is retired.
            self._soa.deactivate(state.soa_row)
            del self._soa_rows[state.soa_row]
            self._alert_callbacks.pop(state.soa_row, None)
            if self._soa.views.alerts[state.soa_row]:
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
        it is none.
        """
        self._state(target)
        self._state(trigger)
        self.install_trigger_plan(TriggerPlan(
            target, trigger, elevation_level, suspend_interval,
            hysteresis=0.0, min_hold=0))

    # -- trigger channel (repro.triggers, DESIGN.md S32) ----------------
    #
    # One gate: a guard on the target (``remote_trigger``, the explicit
    # ``trigger_armed`` flag, the row's ``floor``) flipped by arm/disarm
    # *edges*, and a watch on the trigger that turns its offered values
    # into them, so the trigger task may live on any shard or worker.
    # The service flips the guards it hosts itself (``_deliver_edge``),
    # its host those on the host's other shards, and the cluster
    # coordinator those on other workers (DESIGN.md S32).

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
        self._document = None
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
        self._columns = None
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
        self._document = None
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
                self._soa.views.watched[state.soa_row] = True
        state.watch = TriggerWatcher(level, hysteresis=hysteresis,
                                     min_hold=min_hold)
        self._columns = None

    def install_trigger_plan(self, plan: TriggerPlan) -> None:
        """Wire whichever sides of a ``TriggerPlan`` live on this service.

        A plan's trigger and target may land on different shards; each
        shard's service installs only its local half (guard on the
        target task, watch on the trigger task), both when they share it.
        A trigger task carries one watch, hence one level: the plan is
        refused, before anything is written, when another task of this
        service is guarded on its trigger at another level (a router
        refuses the same over every shard's plans).
        """
        if plan.trigger in self._tasks:
            plan.refuse_second_level({
                name: guard.trigger_level
                for name, guard in self._guards.get(plan.trigger, {}).items()})
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
        self._document = None
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
            return self._soa.views.suspensions[state.soa_row]
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

        Each edge is ``{"op": "arm"|"disarm", "trigger": name, "step":
        int, "value": float}``, handed over after this service has
        flipped its own guards, so a sink routes only to *other*
        services; without one the edge goes no further. Like traces and
        alert callbacks, sinks are not serialised — owners re-attach
        after restore.
        """
        self._trigger_sink = sink

    def set_alert_count_sink(self, sink: Callable[[int], None] | None,
                             ) -> None:
        """Attach a callable receiving the number of alerts each batch
        of an engine service raised (a by-name offer is a batch of one),
        after they are logged and before any task's ``on_alert`` runs —
        how a host counts alerts without a callback per task or a call
        per alert.
        Not serialised, like :meth:`set_trigger_sink`'s.
        """
        if self._soa is None:
            raise ConfigurationError(
                "an alert-count sink requires an SoA-enabled service")
        self._alert_count_sink = sink

    def _watch_edge(self, state: TaskState, value: float,
                    step: int) -> None:
        edge = state.watch.observe(value, step)
        if edge is not None:
            self._deliver_edge({"op": edge, "trigger": state.name,
                                "step": int(step), "value": float(value)})

    def _deliver_edge(self, event: dict[str, Any]) -> None:
        """Route one watch edge: flip this service's guards on its
        trigger, then hand the event to the sink, if any, for whoever
        routes what this service cannot see."""
        self.flip_guards(event["trigger"], event["op"] == "arm")
        if self._trigger_sink is not None:
            self._trigger_sink(event)

    def flip_guards(self, trigger: str, armed: bool) -> None:
        """Arm or disarm every task of this service guarded on
        ``trigger`` — one edge delivered, through the guard index."""
        for name in self._guards.get(trigger, ()):
            self.set_trigger_armed(name, armed)

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
            return self._soa.views.next_due[state.soa_row]
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
        the task's row as a batch of one (:meth:`offer_fast`). ``step``
        is an integer (anything :func:`operator.index` takes); a
        fractional one raises :class:`TypeError` before anything is
        touched.
        """
        self._document = None
        step = index(step)
        if self._soa is not None:
            interval = self.offer_fast(name, value, step)
            if interval is None:
                return None
            c = self._soa.views
            row = self._tasks[name].soa_row
            flags = c.last_flags[row]
            return SamplingDecision(
                next_interval=interval,
                misdetection_bound=c.last_beta[row],
                grew=bool(flags & 1), reset=bool(flags & 2),
                violation=bool(flags & 4))
        if not isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        state = self._state(name)
        if state.watch is not None:
            self._watch_edge(state, value, step)
        # A substrate absorbs *every* offered value, due or not: in the
        # push model updates arrive regardless, and what the schedule
        # gates is the (costed) evaluation of the derived statistic, so
        # the substrate stays a full-resolution reference's and the
        # sampler's mis-detection story reduces to the scalar case on the
        # derived stream. A window takes every offer too (DESIGN.md S17).
        if state.task_type != "value":
            state.substrate.update(value)
        elif state.window > 1:
            state.take(step, value)
        if step < state.next_due:
            return None

        # What the sampler watches: a quantile task's exceedance rate, an
        # entropy task's windowed entropy, a windowed task's aggregate.
        if state.task_type == "quantile":
            monitored = state.substrate.exceedance(state.value_threshold)
        elif state.task_type == "entropy":
            monitored = state.substrate.entropy()
        else:
            monitored = value if state.window == 1 else state.window_read(step)
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
        applies the offer as an :meth:`offer_columns` batch of one on the
        task's row, a scalar service calls :meth:`offer`.
        """
        step = index(step)
        if self._soa is None:
            decision = self.offer(name, value, step)
            return None if decision is None else decision.next_interval
        if not isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        row = self._state(name).soa_row
        if not STEP_MIN <= step <= STEP_MAX:
            # Refuse before any column is written rather than half-way
            # through the row.
            raise ValueError(f"step {step!r} is outside the engine's "
                             f"range [{STEP_MIN}, {STEP_MAX}]")
        _, consumed, rejected, intervals = self.offer_columns(
            [row], [step], [value])
        if rejected:
            # The due row refused the step and wrote nothing: a step not
            # after its last one, or a non-finite delta.
            last = self._soa.views.last_time[row]
            if step <= last:
                raise ValueError(
                    f"time_index must increase: {step} after {last}")
            raise ValueError(f"non-finite observation at step {step}")
        return int(intervals[0]) if consumed else None

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
                block["value"][(res.event_flags & 4).nonzero()[0]] = values
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
        """Apply an offer batch as columns: the server data path, and
        every by-name offer of an engine service as a batch of one.

        ``rows`` are engine row ids (``-1`` = unresolved); a row that is
        negative or retired is re-resolved through ``names`` (parallel to
        the columns) to its task's current row and steps in arrival order
        with the rest. An unknown or missing name counts as rejected, as
        do a non-finite value and a step the row refuses (the per-offer
        error contract of :meth:`offer`).

        Returns ``(applied, consumed, rejected, consumed_intervals)``;
        ``applied`` includes not-due offers, ``consumed_intervals`` holds
        one post-adaptation interval per consumed offer (for telemetry
        histograms).

        Tasks are independent but for trigger edges, so the batch is
        applied tick-wise, not offer by offer — except where a watcher in
        it fires: see :meth:`_watch_cuts`. This is the pass of one part
        (:func:`offer_pass`).
        """
        counts, intervals = offer_pass([(self, rows, steps, values, names)])
        return (*counts[0], intervals)

    def _rows_of(self, names: Sequence[str | None],
                 positions: np.ndarray) -> np.ndarray:
        """The current rows of the tasks ``names`` holds at
        ``positions``: ``-1`` for a missing or unknown name."""
        tasks = self._tasks
        return np.array([getattr(tasks.get(names[pos]), "soa_row", -1)
                         for pos in positions.tolist()], dtype=np.int64)

    def _watch_cuts(self, rows: np.ndarray, steps: np.ndarray,
                    values: np.ndarray, resolve: Any,
                    services: list[MonitoringService], starts: list[int],
                    ) -> tuple[np.ndarray, list[tuple[
                        int, MonitoringService, dict[str, Any], bool]]]:
        """Run a pass's watchers ahead of it; returns its rows, negative
        or retired ones re-resolved through ``resolve`` (as in
        :meth:`SoaSamplerEngine.run_columns`), and where the watchers'
        edges fall, as ``(position, service, event, cut)`` in arrival
        order, ``service`` the one of ``services`` (whose parts start at
        ``starts``) that raised it.

        A watcher depends on its own task's stream alone, so every
        watched offer of the pass can be observed first. An edge belongs
        between the offers before its position and the rest: ``cut``
        says the pass has to be split there for that to hold — a later
        offer of the pass is for a task that one of ``services`` guards
        on the edge's trigger. Other edges only have to keep their order.
        """
        engine = self._soa
        on_row = engine.active[rows] & (rows >= 0)
        stray = (~on_row).nonzero()[0]
        if len(stray):
            rows = rows.copy()
            rows[stray] = found = resolve(stray)
            on_row[stray] = found >= 0
        watched = (engine.watched[rows] & on_row
                   & np.isfinite(values)).nonzero()[0]
        cuts: list[tuple[int, MonitoringService, dict[str, Any], bool]] = []
        for pos, row, step, value in zip(
                watched.tolist(), rows[watched].tolist(),
                steps[watched].tolist(), values[watched].tolist()):
            state = self._soa_rows[row]
            edge = state.watch.observe(value, step)
            if edge is None:
                continue
            guarded = [guard.soa_row for service in services
                       for guard in service._guards.get(state.name, {})
                       .values()]
            cut = bool(guarded) and bool(np.isin(rows[pos + 1:],
                                                 guarded).any())
            cuts.append((pos, services[bisect_right(starts, pos) - 1],
                         {"op": edge, "trigger": state.name, "step": step,
                          "value": value}, cut))
        return rows, cuts

    def _apply_columns(self, rows: np.ndarray, steps: np.ndarray,
                       values: np.ndarray, resolve: Any,
                       services: list[MonitoringService], starts: list[int],
                       ) -> tuple[list[tuple[int, int, int]], np.ndarray]:
        """One stretch of a pass no trigger edge falls inside, as one
        engine batch: the parts of ``services`` (this one first)
        starting at ``starts``. Each service gets its own rows of the
        result — their alert and trace fan-out, and its ``(applied,
        consumed, rejected)`` — split by the engine's ``holder`` column
        and, for an offer rejected before any tick, by position; the
        consumed intervals stay one array."""
        engine = self._soa
        hooks = self._hooks
        res = engine.run_columns(rows, steps, values,
                                 hooks if engine.derived_rows else None,
                                 resolve, starts)
        # The engine advanced and gated its rows' schedules itself; what
        # is left of the per-offer tail is the alert and trace fan-out of
        # the rare flagged steps.
        estimates = hooks.estimates
        if len(res.event_rows):
            owners = engine.holder[res.event_rows]
            for service in services:
                mine = (owners == service._holder).nonzero()[0]
                if not len(mine):
                    continue
                part = res if len(mine) == len(owners) else _events_of(
                    res, mine)
                if len(part.event_rows if service._trace is not None
                       else part.viol_rows):
                    service._fan_out_columns(part, estimates)
        estimates.clear()
        if len(services) == 1:
            return ([(res.applied, res.consumed, res.rejected)],
                    res.consumed_intervals)
        holders = [service._holder for service in services]

        def per_part(held: np.ndarray) -> list[int]:
            if not len(held):
                return [0] * len(holders)
            return np.bincount(engine.holder[held], minlength=(
                engine.holders + 1))[holders].tolist()
        rejected = per_part(res.refused_rows)
        if len(res.rejected_at):
            rejected = list(map(add, rejected, np.bincount(
                np.searchsorted(starts, res.rejected_at, "right") - 1,
                minlength=len(holders)).tolist()))
        sizes = map(sub, [*starts[1:], len(rows)], starts)
        return ([(size - gone, taken, gone) for size, taken, gone in zip(
            sizes, per_part(res.consumed_rows), rejected)],
            res.consumed_intervals)

    def alerts(self, name: str) -> list[Alert]:
        """Alerts raised by a task so far (chronological)."""
        state = self._state(name)
        if self._soa is None:
            return list(state.alerts)
        if not self._soa.views.alerts[state.soa_row]:
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
        return self._soa.views.alerts[state.soa_row]

    def samples_taken(self, name: str) -> int:
        """Sampling operations consumed by a task so far."""
        state = self._state(name)
        if self._soa is not None:
            return self._soa.views.samples_taken[state.soa_row]
        return state.samples_taken

    def interval(self, name: str) -> int:
        """A task's current sampling interval (in default intervals)."""
        state = self._state(name)
        if self._soa is not None:
            return self._soa.views.interval[state.soa_row]
        return state.sampler.interval

    def observations(self, name: str) -> int:
        """Values offered while the task was due (sampler observations)."""
        state = self._state(name)
        if self._soa is not None:
            return self._soa.views.observations[state.soa_row]
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
        """Serialise the full service state to a dict of columns.

        Captures every registered task's spec, adaptation config, schedule
        position, sampler statistics (Welford state, current interval,
        patience streak), alert history, trigger wiring (guards and
        watchers) and windows — everything :meth:`restore` needs to
        resume with identical behaviour. Alert callbacks are not captured.

        The document is columns aligned with ``names``
        (``_SCHEMA``; DESIGN.md S31 "snapshots are columns"): an
        engine service reads each off its rows with one gather, the
        scalar oracle walks its samplers, and both write the identical
        document — so its fingerprint is the same whether the service
        ran columnar or scalar. The columns an engine holds are read-only
        arrays of their own; the registration columns are built once per
        registration change (:meth:`_registration`) and handed out as
        read-only views of ``f8`` / ``i8`` arrays where every element is
        exactly a float / an int, as fresh list copies where not. So the
        document is a value: later offers and control ops do not move
        it, and a snapshot with no control op since the last walks no
        task for them. One with no op at all since the last hands back
        that very document (every mutator drops it at its entry), shared
        by whoever asked, so nobody writes into it. It is JSON once an
        array is taken for its list
        (``default=numpy.ndarray.tolist``); ``state_fingerprint``, the
        wire and ``write_checkpoint`` do that themselves. Nothing is
        written.
        """
        if self._document is not None:
            return self._document
        engine = self._soa
        if engine is None:
            states = list(self._tasks.values())
            sampler = sampler_state_columns(
                [state.sampler.state_dict() for state in states])
            # The task columns a scalar service keeps on its tasks.
            fresh = {key: _array(_read(states, key), int)
                     for key in ("next_due", "samples_taken")}
            fresh["alerts"] = _array(list(map(len, _read(states, "alerts"))),
                                     int)
            history = [alert for state in states for alert in state.alerts]
            alerts = {key: _typed(_read(history, field), entry)
                      for (key, entry), field in zip(
                          _SCHEMA["alerts"].columns.items(),
                          ("time_index", "value", "threshold"))}
        kept = self._registration()
        if engine is not None:
            # A fancy gather: each column an array of its own.
            rows = kept["rows"]
            sampler = engine.rows_state(rows)
            # The engine's columns of the same names.
            fresh = {key: _read_only(getattr(engine, key)[rows])
                     for key in ("next_due", "samples_taken", "alerts")}
            alerts = self._alert_log.columns(len(engine))
        held = kept["task"]
        # A sparse group holds the tasks that have its state: of the
        # windowed, those whose window holds something. A group with no
        # member is left out, so a plain fleet's is ``{}``.
        sparse = {kind: {"task": _handed(at),
                         **self._sparse_group(kind, states, at)}
                  for kind, (at, states) in kept["sparse"].items() if states}
        self._document = document = {
            "version": SNAPSHOT_VERSION,
            "adaptation": self._config.to_dict(),
            "adaptations": [config.to_dict() for config in kept["configs"]],
            "names": _handed(kept["names"]),
            "spec": {key: _handed(column)
                     for key, column in kept["spec"].items()},
            "sampler": sampler,
            "task": {key: fresh[key] if key in fresh else _handed(held[key])
                     for key in _SCHEMA["task"].columns},
            "alerts": alerts,
            "sparse": {kind: group for kind, group in sparse.items()
                       if len(group["task"])},
        }
        return document

    def _sparse_group(self, kind: str, states: list[TaskState],
                      at: np.ndarray) -> dict[str, Any]:
        """The columns of one ``sparse`` group (``_SCHEMA``) but
        ``task``, of its members ``states`` (at positions ``at``), read
        fresh — one builder for both representations — in the table's
        order: what is read off them typed as the table says, then what
        their substrates write; a guard's count comes from wherever the
        service keeps it. The windows' group, read off the engine's rings
        or the scalar service's lists, is of the tasks whose window holds
        an entry, and writes its ``task`` too."""
        if kind == "window_values":
            if self._soa is None:
                windows = [state._window or () for state in states]
                pairs = list(chain.from_iterable(windows))
                lengths = np.array(list(map(len, windows)), dtype=np.int64)
                steps = np.array([step for step, _ in pairs], dtype=np.int64)
                values = np.array([value for _, value in pairs], dtype=float)
            else:
                lengths, steps, values = self._soa.window_entries(np.array(
                    _read(states, "soa_row"), dtype=np.int64))
            filled = lengths > 0
            return {key: _read_only(column) for key, column in (
                ("task", at[filled]), ("length", lengths[filled]),
                ("step", steps), ("value", values))}
        schema = _SCHEMA["sparse"].columns[kind].columns
        if kind in ("quantile", "entropy"):
            estimator = (QuantileEstimator if kind == "quantile"
                         else EntropyEstimator)
            return {"value_threshold": _typed(
                _read(states, "value_threshold"), schema["value_threshold"]),
                **estimator.to_columns(_read(states, "substrate"))}
        if kind == "guard":
            read = {"remote_trigger": _read(states, "remote_trigger"),
                    "armed": _read(states, "trigger_armed"),
                    "suspensions": list(map(self._suspensions, states))}
        else:
            watches = [state.watch.state_dict() for state in states]
            read = {key: [watch[key] for watch in watches]
                    for key in watches[0]}
            last = read["last_transition"]
            read["last_transition"] = [0 if step is None else step
                                       for step in last]
            read["transitioned"] = [step is not None for step in last]
        return {key: _typed(read[key], schema[key])
                for key in schema if key != "task"}

    def _registration(self) -> dict[str, Any]:
        """The snapshot's registration columns: what only a control op
        can change — names, specs, configs, window / guard settings, and
        which tasks each ``sparse`` group can hold. Built on the first
        snapshot after a change and kept until the next: ``_register``,
        ``remove_task``, ``add_remote_trigger`` and ``add_trigger_watch``
        drop it (a restore builds a fresh service)."""
        kept = self._columns
        if kept is not None:
            return kept
        states = list(self._tasks.values())
        configs, adaptation = _distinct([state.config for state in states])
        # Strings are kept as lists, numbers packed where they can be.
        spec = {key: column if key in ("direction", "name") else
                _column(column) for key, column in spec_columns(
                    [state.task for state in states]).items()}
        task = {
            "adaptation": _read_only(adaptation),
            "window": _column(_read(states, "window")),
            "window_kind": _read(states, "window_kind._value_"),
            "trigger_level": _column(_read(states, "trigger_level")),
            # An int by construction: add_remote_trigger's int(), or a
            # restore's checked column.
            "suspend_interval": _array(_read(states, "suspend_interval"), int),
        }
        # Which tasks each sparse group may hold (a window may be empty);
        # a group's positions are handed out as its task column.
        sparse: dict[str, list[int]] = {
            kind: [] for kind in _SCHEMA["sparse"].columns}
        for at, state in enumerate(states):
            if state.substrate is not None:
                sparse[state.task_type].append(at)
            if state.remote_trigger is not None:
                sparse["guard"].append(at)
            if state.watch is not None:
                sparse["watch"].append(at)
            if state.window > 1:
                sparse["window_values"].append(at)
        self._columns = kept = {
            "configs": configs,
            "names": list(self._tasks),
            # An engine service's rows, in registration order.
            "rows": _array(_read(states, "soa_row"), int),
            "spec": spec,
            "task": task,
            "sparse": {kind: (_array(at, int), [states[i] for i in at])
                       for kind, at in sparse.items()},
        }
        return kept

    @classmethod
    def restore(cls, snapshot: dict[str, Any],
                on_alert: Callable[[str, Alert], None] | None = None,
                soa: bool = False) -> "MonitoringService":
        """Rebuild a service from a :meth:`snapshot` dict.

        Args:
            snapshot: a dict produced by :meth:`snapshot`, stamped
                :data:`SNAPSHOT_VERSION` — the one version this build
                reads; any other is refused, and nothing upgrades it.
                Any dense column may be an array (as :meth:`snapshot`
                and ``read_checkpoint`` hand them out) or a list (its
                JSON form, off the wire).
            on_alert: optional ``(task_name, alert)`` callback attached to
                every restored task (callbacks cannot be serialised, so
                they are re-wired here).
            soa: restore every task onto a row of an SoA engine
                (columnar hot path) — a fresh one, or the engine given,
                as the constructor takes it; snapshots carry no trace of
                the flag, so any snapshot restores either way.

        A restored service produces the same decision/alert stream as one
        that was never interrupted, given the same subsequent offers. A
        document that is not a snapshot raises
        :class:`~repro.exceptions.ConfigurationError` before a service
        exists.
        """
        _check_snapshot(snapshot)
        configs = list(map(AdaptationConfig.from_dict,
                           snapshot["adaptations"]))
        # The dense groups, in the table's order. What builds a TaskSpec
        # or a TaskState is read as lists. Every spec is built here,
        # before any service exists: its range checks are the ones the
        # spec columns get.
        spec = snapshot["spec"]
        *numbers, direction, spec_name = map(_listed, _ordered(
            spec, _SCHEMA["spec"]))
        config_at, windows, kinds, due, taken, logged, levels, \
            suspend_intervals = _ordered(snapshot["task"], _SCHEMA["task"])
        states = [TaskState(name=name, task=task_spec,
                            config=configs[config], window=window,
                            window_kind=_WINDOW_KINDS[kind],
                            trigger_level=level,
                            suspend_interval=suspend_interval)
                  for (name, task_spec, config, window, kind, level,
                       suspend_interval) in zip(
                      snapshot["names"], map(TaskSpec, *numbers, map(
                          _DIRECTIONS.__getitem__, direction), spec_name),
                      *map(_listed, (config_at, windows, kinds, levels,
                                     suspend_intervals)))]
        # What few tasks have, group by group onto the tasks each names;
        # substrates and watchers refuse their values here, too.
        sparse = _no_members(_SCHEMA["sparse"]) | snapshot["sparse"]
        members = {kind: [states[at] for at in _listed(group["task"])]
                   for kind, group in sparse.items()}
        for kind, estimator in (("quantile", QuantileEstimator),
                                ("entropy", EntropyEstimator)):
            group = sparse[kind]
            for state, value_threshold, substrate in zip(
                    members[kind], _listed(group["value_threshold"]),
                    estimator.from_columns(group)):
                state.task_type, state.value_threshold = kind, value_threshold
                state.substrate = substrate
        schema = _SCHEMA["sparse"].columns
        guarded, triggers, armed, suspensions = _ordered(sparse["guard"],
                                                         schema["guard"])
        for state, trigger, flag in zip(members["guard"], _listed(triggers),
                                        _listed(armed)):
            state.remote_trigger, state.trigger_armed = trigger, flag
        # A watcher's state_dict, less its transitioned flag.
        keys = [key for key in schema["watch"].columns if key != "task"]
        for state, *fields in zip(members["watch"], *(
                _listed(sparse["watch"][key]) for key in keys)):
            entry = dict(zip(keys, fields))
            if not entry.pop("transitioned"):
                entry["last_transition"] = None
            state.watch = TriggerWatcher.from_state_dict(entry)
        windowed, lengths, steps, values = _ordered(sparse["window_values"],
                                                    schema["window_values"])
        if on_alert is not None:
            for state in states:
                state.on_alert = partial(on_alert, state.name)

        service = cls(AdaptationConfig.from_dict(snapshot["adaptation"]),
                      soa=soa)
        engine = service._soa
        rows = None if engine is None else engine.add_tasks(
            spec, configs, config_at, service._holder)
        service._register(states, rows)
        alerts = _ordered(snapshot["alerts"], _SCHEMA["alerts"])
        # What columns hold goes straight into the columns; the oracle's
        # samplers and tasks take it as lists.
        if engine is None:
            for state, held in zip(members["window_values"], _split(
                    lengths, list(zip(_listed(steps), _listed(values))))):
                state._window = deque(held)
            history = [Alert(step, float(value), float(threshold))
                       for step, value, threshold in zip(*map(_listed,
                                                             alerts))]
            sampler = {key: _listed(column)
                       for key, column in snapshot["sampler"].items()}
            for at, (state, next_due, samples_taken, held) in enumerate(zip(
                    states, _listed(due), _listed(taken),
                    _split(logged, history))):
                state.sampler.load_state_dict(sampler_state_dict(sampler, at))
                state.next_due = next_due
                state.samples_taken = samples_taken
                state.alerts = held
            for state, count in zip(members["guard"], _listed(suspensions)):
                state.trigger_suspensions = count
        else:
            at = slice(rows.start, rows.stop)
            engine.load_rows_state(at, snapshot["sampler"])
            engine.next_due[at] = due
            engine.samples_taken[at] = taken
            engine.alerts[at] = logged
            service._alert_log.append(
                np.repeat(np.arange(rows.start, rows.stop), logged), *alerts)
            engine.suspensions[rows.start + np.asarray(
                guarded, np.int64)] = suspensions
            if len(windowed):
                engine.load_windows(rows.start + np.asarray(windowed, int),
                                    lengths, steps, values)
        return service


def offer_pass(parts: Sequence[tuple[MonitoringService, Any, Any, Any,
                                     Sequence[str | None] | None]],
               ) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Apply an offer batch to each of several engine services that hold
    rows of one engine, as one batch: a worker host's pass over its
    shards' queues. Each part is ``(service, rows, steps, values,
    names)``, as :meth:`MonitoringService.offer_columns` takes them —
    which is the pass of one part. Returns each part's ``(applied,
    consumed, rejected)`` and every part's consumed intervals in one
    array.

    A pass gives, row for row, alert for alert and edge for edge, what
    applying the parts one after another in the order given gives: only
    the engine's ticks are shared. It runs in three stages. The watchers
    run over the concatenation, and an edge cuts it wherever a later
    offer of the pass is for a task that any of the parts' services
    guards on the edge's trigger (:meth:`MonitoringService._watch_cuts`).
    Each stretch between cuts goes to the engine as one batch, which
    plans it part by part and merges the parts' ticks
    (:meth:`SoaSamplerEngine._ticks`). Each service then gets its own
    rows of the result: its alerts, its trace block and its counts
    (:meth:`MonitoringService._apply_columns`). A trace may interleave
    different services' blocks and guard events otherwise than one part
    after another would; what each event says is the same.
    """
    services = [part[0] for part in parts]
    first = services[0]
    engine = first._soa
    if engine is None:
        raise ConfigurationError(
            "offer_columns requires an SoA-enabled service")
    if any(service._soa is not engine for service in services):
        raise ConfigurationError("the services of a pass share one engine")
    for service in services:
        service._document = None
    starts = [0, *accumulate(len(part[1]) for part in parts[:-1])]
    rows, steps, values = (
        column[0] if len(parts) == 1 else np.concatenate(column)
        for column in zip(*((np.asarray(rows, dtype=np.int64),
                             np.asarray(steps, dtype=np.int64),
                             np.asarray(values, dtype=np.float64))
                            for _, rows, steps, values, _ in parts)))
    resolve = partial(_resolve_parts, parts, starts)
    if not len(rows) or not any(service._watchers for service in services):
        return first._apply_columns(rows, steps, values, resolve, services,
                                    starts)
    counts = [[0, 0, 0] for _ in parts]
    intervals: list[np.ndarray] = []
    pending: list[tuple[MonitoringService, dict[str, Any]]] = []
    lo = 0
    rows, cuts = first._watch_cuts(rows, steps, values, resolve, services,
                                   starts)
    for pos, raiser, event, cut in cuts + [(len(rows), first, None, True)]:
        # An edge at the front of what is left goes out at once, as a
        # by-name offer's edge goes before its own step.
        if not cut and pos > lo:
            pending.append((raiser, event))
            continue
        if pos > lo:
            # The cuts re-resolved every row they could.
            got, consumed = first._apply_columns(
                rows[lo:pos], steps[lo:pos], values[lo:pos], None, services,
                [min(max(start - lo, 0), pos - lo) for start in starts])
            for total, part in zip(counts, got):
                total[:] = map(add, total, part)
            intervals.append(consumed)
            lo = pos
        for earlier, edge in pending:
            earlier._deliver_edge(edge)
        pending.clear()
        if event is not None:
            raiser._deliver_edge(event)
    return (list(map(tuple, counts)), intervals[0] if len(intervals) == 1
            else np.concatenate(intervals))


def _resolve_parts(parts: Sequence[tuple[Any, ...]], starts: list[int],
                   positions: np.ndarray) -> np.ndarray:
    """The current rows of a pass's offers at ``positions``, each
    through its own part's service and names (``-1`` for a part with
    none)."""
    rows = np.full(len(positions), -1, dtype=np.int64)
    owner = np.searchsorted(starts, positions, "right") - 1
    for at, (service, *_, names) in enumerate(parts):
        mine = (owner == at).nonzero()[0]
        if names is not None and len(mine):
            rows[mine] = service._rows_of(names,
                                          positions[mine] - starts[at])
    return rows


def _events_of(res: ColumnBatchResult, at: np.ndarray) -> ColumnBatchResult:
    """The flagged offers of ``res`` at ``at`` (one service's rows), as a
    result of their own for that service's fan-out."""
    part = ColumnBatchResult()
    for key in ("event_rows", "event_steps", "event_values",
                "event_intervals", "event_flags", "event_betas"):
        setattr(part, key, getattr(res, key)[at])
    viol = (part.event_flags & 4).nonzero()[0]
    part.viol_rows = part.event_rows[viol]
    part.viol_steps = part.event_steps[viol]
    part.viol_values = part.event_values[viol]
    return part
