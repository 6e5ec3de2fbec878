"""Hypothesis property tests for the streaming service."""

from __future__ import annotations

import os
from functools import partial
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.runtime.checkpoint import state_fingerprint
from repro.service import MonitoringService
from repro.triggers.plan import TriggerPlan
from repro.types import ThresholdDirection

bounded = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@given(values=st.lists(bounded, min_size=5, max_size=200),
       err=st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_due_offer_schedule_is_consistent(values, err):
    """Whenever due() says yes, offer() consumes; otherwise it refuses."""
    service = MonitoringService(AdaptationConfig(patience=2,
                                                 min_samples=2))
    service.add_task("t", TaskSpec(threshold=10.0, error_allowance=err,
                                   max_interval=8))
    consumed = 0
    for step, value in enumerate(values):
        due = service.due("t", step)
        decision = service.offer("t", value, step)
        assert (decision is not None) == due
        if due:
            consumed += 1
            assert service.next_due("t") > step
    assert service.samples_taken("t") == consumed
    assert consumed >= 1


@given(values=st.lists(bounded, min_size=3, max_size=100),
       window=st.integers(min_value=1, max_value=10),
       kind=st.sampled_from(AggregateKind))
@settings(max_examples=60, deadline=None)
def test_windowed_service_matches_reference_aggregate(values, window, kind):
    """With a zero allowance the service samples every step, and with a
    threshold below every aggregate each sample alerts with the value it
    read: the reference aggregate, bit for bit, on either
    representation."""
    from repro.core.windowed import aggregate_trace

    reference = aggregate_trace(np.asarray(values), window, kind).tolist()
    for soa in (False, True):
        service = MonitoringService(soa=soa)
        service.add_task("w", TaskSpec(threshold=-1e9, error_allowance=0.0),
                         window=window, window_kind=kind)
        for step, value in enumerate(values):
            service.offer("w", value, step)
        observed = [alert.value for alert in service.alerts("w")]
        assert list(map(float.hex, observed)) == list(map(float.hex,
                                                          reference))


@given(alert_steps=st.sets(st.integers(min_value=0, max_value=99),
                           max_size=10))
@settings(max_examples=60, deadline=None)
def test_alert_callback_fires_exactly_on_violations(alert_steps):
    values = np.zeros(100)
    for step in alert_steps:
        values[step] = 50.0
    fired: list[int] = []
    service = MonitoringService()
    service.add_task("t", TaskSpec(threshold=10.0, error_allowance=0.0),
                     on_alert=lambda a: fired.append(a.time_index))
    for step, value in enumerate(values):
        service.offer("t", float(value), step)
    assert sorted(fired) == sorted(alert_steps)


# -- the snapshot's kept registration columns --------------------------
#
# A snapshot keeps the columns only a control op can change and drops
# them on every one (MonitoringService._registration). Service A
# snapshots after every op, so a mutator that failed to drop them would
# leave A's next document stale; service B snapshots once, at the end.

NAMES = ["a", "b", "c", "d", "far"]  # "far" is never registered
_name = st.sampled_from(NAMES[:4])
_any_name = st.sampled_from(NAMES)
_threshold = st.sampled_from([50, 50.0, 62.5, 80.0])

_CONTROL_OPS = st.one_of(
    st.tuples(st.just("plain"), _name, _threshold,
              st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("windowed"), _name, _threshold,
              st.integers(min_value=2, max_value=5),
              st.sampled_from(list(AggregateKind))),
    st.tuples(st.just("quantile"), _name, _threshold),
    st.tuples(st.just("entropy"), _name,
              st.floats(min_value=0.5, max_value=3.0)),
    st.tuples(st.just("remove"), _name),
    st.tuples(st.just("trigger"), _name, _name, _threshold,
              st.integers(min_value=2, max_value=8)),
    st.tuples(st.just("plan"), _name, _any_name, _threshold,
              st.integers(min_value=2, max_value=8),
              st.sampled_from([0.0, 0.1, 0.3]),
              st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("watch"), _name, _threshold,
              st.sampled_from([0.0, 0.1, 0.3]),
              st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("armed"), _name, st.booleans()),
    st.tuples(st.just("offer"), st.lists(bounded, min_size=4, max_size=4)),
)


def _apply(service: MonitoringService, op: tuple, step: int) -> None:
    kind, *args = op
    if kind == "plain":
        name, threshold, max_interval = args
        service.add_task(name, TaskSpec(threshold, 0.05,
                                        max_interval=max_interval,
                                        name=name))
    elif kind == "windowed":
        name, threshold, window, window_kind = args
        service.add_task(name, TaskSpec(threshold, 0.05, name=name),
                         window=window, window_kind=window_kind)
    elif kind == "quantile":
        name, threshold = args
        service.add_quantile_task(name, threshold=threshold, quantile=0.9,
                                  error_allowance=0.05)
    elif kind == "entropy":
        name, threshold = args
        service.add_entropy_task(name, threshold=threshold,
                                 error_allowance=0.05)
    elif kind == "remove":
        service.remove_task(*args)
    elif kind == "trigger":
        service.add_trigger(*args)
    elif kind == "plan":
        target, trigger, level, suspend, hysteresis, hold = args
        service.install_trigger_plan(TriggerPlan(
            target, trigger, level, suspend, hysteresis=hysteresis,
            min_hold=hold))
    elif kind == "watch":
        trigger, level, hysteresis, hold = args
        service.add_trigger_watch(trigger, level, hysteresis=hysteresis,
                                  min_hold=hold)
    elif kind == "armed":
        service.set_trigger_armed(*args)
    else:
        for name, value in zip(NAMES, *args):
            if name in service.task_names:
                service.offer(name, 40.0 + value / 200.0, step)


def _replayed(ops: list[tuple], soa: bool) -> MonitoringService:
    """A service fed ``ops`` without a snapshot in between."""
    service = MonitoringService(soa=soa)
    for step, op in enumerate(ops):
        try:
            _apply(service, op, step)
        except ConfigurationError:
            pass
    return service


@given(ops=st.lists(_CONTROL_OPS, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_every_mutator_drops_the_kept_columns(ops):
    """Four services — snapshot after every op or only at the end, on
    rows and on the scalar oracle — fed the same control ops and offers
    end on one fingerprint, and each restores to it. Each eager
    snapshot is also the one a service fed the same prefix writes on its
    first snapshot, so a stale document cannot hide behind a later op."""
    services = {(soa, eager): MonitoringService(soa=soa)
                for soa in (False, True) for eager in (False, True)}
    for step, op in enumerate(ops):
        refused = set()
        for (soa, eager), service in services.items():
            try:
                _apply(service, op, step)
            except ConfigurationError:
                refused.add((soa, eager))
            if eager:
                assert state_fingerprint(service.snapshot()) == (
                    state_fingerprint(_replayed(ops[:step + 1], soa)
                                      .snapshot())), op
        assert refused in (set(), set(services)), op
    taken = {key: state_fingerprint(service.snapshot())
             for key, service in services.items()}
    assert len(set(taken.values())) == 1
    for (soa, _), service in services.items():
        restored = MonitoringService.restore(service.snapshot(), soa=soa)
        assert state_fingerprint(restored.snapshot()) == taken[soa, False]


# -- the handed-back document -------------------------------------------
#
# snapshot() hands back the last document it built until a mutator
# clears it at its entry (DESIGN.md S31). Whenever a service is looked
# at, the document it hands back must be the one a fresh build writes —
# after an op that raised part-way, too. CI runs a deeper budget through
# VOLLEY_COHERENCE_EXAMPLES.

_COHERENCE_EXAMPLES = int(os.environ.get("VOLLEY_COHERENCE_EXAMPLES", "60"))
_offered = st.sampled_from([40.0, 55.0, 70.0, 1.5e308, float("nan")])
_MOVES = st.one_of(
    _CONTROL_OPS,
    # By name, at this op's step or one around it, a value that may
    # overflow a delta or be refused before anything is touched.
    st.tuples(st.just("by_name"), _any_name,
              st.integers(min_value=-1, max_value=1), _offered),
    st.tuples(st.just("columns"), st.lists(st.tuples(
        _any_name, st.integers(min_value=-1, max_value=2), _offered),
        min_size=1, max_size=6)),
    st.tuples(st.just("flip"), _any_name, st.booleans()),
)
# A fleet of four to start from, and up to three guards on it.
_FLEET_OPS = st.tuples(*(st.sampled_from([
    ("plain", name, 50.0, 8), ("windowed", name, 50.0, 3, AggregateKind.SUM),
    ("quantile", name, 62.5), ("entropy", name, 1.0)]) for name in NAMES[:4]))
_GUARD_OPS = st.lists(st.builds(
    lambda target, trigger: ("trigger", target, trigger, 50.0, 4), _name,
    _name), max_size=3)


def _move(service: MonitoringService, op: tuple, step: int) -> None:
    kind, *args = op
    if kind == "by_name":
        name, delta, value = args
        service.offer(name, value, step + delta)
    elif kind == "columns":
        names = [name for name, _, _ in args[0]]
        service.offer_columns(
            [service.soa_row_for(name) if name in service.task_names
             else -1 for name in names],
            [step + delta for _, delta, _ in args[0]],
            [value for _, _, value in args[0]], names)
    elif kind == "flip":
        service.flip_guards(*args)
    else:
        _apply(service, op, step)


def _fresh(service: MonitoringService) -> dict[str, Any]:
    """The document a fresh build writes, the service's slot left as it
    was."""
    kept, service._document = service._document, None
    try:
        return service.snapshot()
    finally:
        service._document = kept


@given(fleet=_FLEET_OPS, guards=_GUARD_OPS,
       ops=st.lists(_MOVES, min_size=1, max_size=16))
@settings(max_examples=_COHERENCE_EXAMPLES, deadline=None)
def test_a_handed_back_document_is_a_fresh_one(fleet, guards, ops):
    """A fleet of every kind, guarded, then registrations, removals,
    by-name and column offers, trigger installs, arms, disarms and guard
    flips — some refused — on the scalar oracle and on rows: after every
    op, what ``snapshot()`` hands back has a fresh build's fingerprint,
    and the next ``snapshot()`` hands back that very document."""
    for soa in (False, True):
        service = MonitoringService(soa=soa)
        for at, op in enumerate([*fleet, *guards, *ops]):
            try:
                _move(service, op, 2 * at)
            except (ConfigurationError, ValueError):
                pass
            handed = service.snapshot()
            assert state_fingerprint(handed) == state_fingerprint(
                _fresh(service)), (soa, op)
            assert service.snapshot() is handed


# -- a restore is the registration it was taken from -------------------
#
# A restore takes its tasks in bulk (MonitoringService._register of the
# whole fleet onto rows from one SoaSamplerEngine.add_tasks), where
# add_task takes them one at a time. The fingerprint sees only what a
# snapshot writes; these fleets also compare what it does not — the row
# marks, floors and counters, the hooks, guard index and callbacks —
# and then the same continuation on both.

_FLEET_CONFIG = st.one_of(st.none(), st.builds(
    AdaptationConfig, patience=st.integers(min_value=1, max_value=3),
    min_samples=st.integers(min_value=2, max_value=4),
    estimator=st.sampled_from(["gaussian", "chebyshev"]),
    stats_restart=st.sampled_from([None, 9])))
_FLEET = st.lists(st.tuples(
    st.sampled_from(["plain", "lower", "windowed", "quantile", "entropy"]),
    _FLEET_CONFIG,
    # The guard: none, or armed / disarmed on the local watched trigger
    # or on one that lives elsewhere.
    st.sampled_from([None, ("trigger", True), ("trigger", False),
                     ("far", True), ("far", False)]),
    st.integers(min_value=1, max_value=9)), min_size=1, max_size=10)
# Columns a step writes before anything reads them: its own output.
_STEP_OUTPUT = {"last_beta", "last_flags"}


def _fleet(fleet: list[tuple], watched: bool,
           on_alert: Any) -> MonitoringService:
    service = MonitoringService(soa=True)
    names = ["trigger"] + [f"t{i}" for i in range(len(fleet))]
    service.add_task("trigger", TaskSpec(60.0, 0.05),
                     on_alert=on_alert and partial(on_alert, "trigger"))
    for name, (kind, config, _, _) in zip(names[1:], fleet):
        callback = on_alert and partial(on_alert, name)
        if kind in ("plain", "lower", "windowed"):
            service.add_task(
                name, TaskSpec(60.0, 0.05, max_interval=6,
                               direction=ThresholdDirection(
                                   "lower" if kind == "lower" else "upper")),
                window=3 if kind == "windowed" else 1,
                window_kind=AggregateKind.MAX, config=config,
                on_alert=callback)
        elif kind == "quantile":
            service.add_quantile_task(name, threshold=62.0, quantile=0.8,
                                      sketch_window=16, config=config,
                                      on_alert=callback)
        else:
            service.add_entropy_task(name, threshold=2.0, bin_width=4.0,
                                     entropy_window=16, config=config,
                                     on_alert=callback)
    if watched:
        service.add_trigger_watch("trigger", 58.0, hysteresis=0.1,
                                  min_hold=2)
    for name, (_, _, guard, suspend) in zip(names[1:], fleet):
        if guard is not None:
            service.add_remote_trigger(name, guard[0], 58.0,
                                       suspend_interval=suspend)
            service.set_trigger_armed(name, guard[1])
    return service


def _offer(service: MonitoringService, steps: range, seed: int) -> None:
    rng = np.random.default_rng(seed)
    names = service.task_names
    rows = np.asarray([service.soa_row_for(name) for name in names])
    for step in steps:
        service.offer_columns(rows, np.full(len(rows), step),
                              rng.normal(58.0, 6.0, len(rows)), names)


def _unseen(service: MonitoringService) -> dict[str, Any]:
    """What a restore rebuilds that no snapshot writes, by task name."""
    engine = service.soa_engine
    names = service.task_names
    rows = [service.soa_row_for(name) for name in names]
    name_of = dict(zip(rows, names))
    return {
        "columns": {column: getattr(engine, column)[rows].tolist()
                    for column in engine._COLUMNS
                    if column not in _STEP_OUTPUT},
        "counters": (engine.derived_rows, engine._floored,
                     service._watchers),
        "row_names": [service._row_names[row] for row in rows],
        "guards": {trigger: sorted(guarded)
                   for trigger, guarded in service._guards.items()},
        "callbacks": sorted(map(name_of.get, service._alert_callbacks)),
    }


@given(fleet=_FLEET, watched=st.booleans(), callbacks=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=60, deadline=None)
def test_a_restored_engine_is_the_registered_one(fleet, watched,
                                                  callbacks, seed):
    """A fleet of every kind of task, registered one by one and offered
    some steps, restores onto an engine that matches it column for
    column over the live rows — row marks, floors and suspension counts
    included — with the same derived / floored row counts, row names,
    hook rows, guard index, watcher count and alert callbacks; fed the
    same continuation, both end on one fingerprint and the same alerts,
    delivered alike."""
    delivered: dict[str, list] = {"registered": [], "restored": []}

    def recorder(side: str) -> Any:
        return (lambda name, alert: delivered[side].append((name, alert))
                ) if callbacks else None
    registered = _fleet(fleet, watched, recorder("registered"))
    _offer(registered, range(24), seed)
    snapshot = registered.snapshot()
    restored = MonitoringService.restore(snapshot, soa=True,
                                         on_alert=recorder("restored"))
    assert restored.task_names == registered.task_names
    assert _unseen(restored) == _unseen(registered)
    assert state_fingerprint(restored.snapshot()) == (
        state_fingerprint(snapshot))
    delivered["registered"].clear()
    for service in (registered, restored):
        _offer(service, range(24, 60), seed + 1)
    assert state_fingerprint(restored.snapshot()) == (
        state_fingerprint(registered.snapshot()))
    for name in registered.task_names:
        assert restored.alerts(name) == registered.alerts(name)
    assert delivered["restored"] == delivered["registered"]
