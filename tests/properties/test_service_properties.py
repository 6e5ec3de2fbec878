"""Hypothesis property tests for the streaming service."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.runtime.checkpoint import state_fingerprint
from repro.service import MonitoringService
from repro.triggers.plan import TriggerPlan

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
       window=st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_windowed_service_matches_reference_aggregate(values, window):
    """With a zero allowance the service samples every step, so its
    windowed aggregate must equal the reference implementation."""
    from repro.core.windowed import aggregate_trace

    service = MonitoringService()
    threshold = 1e9  # never alert; we only check the aggregation
    service.add_task("w", TaskSpec(threshold=threshold,
                                   error_allowance=0.0),
                     window=window, window_kind=AggregateKind.MEAN)
    reference = aggregate_trace(np.asarray(values), window,
                                AggregateKind.MEAN)
    state = service._state("w")
    for step, value in enumerate(values):
        observed = state.aggregate(step, value)
        # offer() would run the same aggregate; compare directly.
        assert observed == pytest.approx(reference[step], rel=1e-9,
                                         abs=1e-9)


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
