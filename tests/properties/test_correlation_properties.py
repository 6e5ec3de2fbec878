"""Offline and live run one gate.

:func:`~repro.experiments.runner.run_triggered` is the trace-driven form
of a correlation guard, and it must be the live one: a
:class:`~repro.service.MonitoringService` on engine rows with the pair
installed as a :class:`~repro.triggers.plan.TriggerPlan` at hysteresis 0
/ hold 0, fed the same two traces (trigger first at each step), samples
the target at exactly the same steps with the same intervals. Pinned on
the trigger-leads-by-two stream of the live gate's own tests, on the
correlation benchmark's stream, and on hypothesis pairs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import CorrelationPlanner, TaskProfile
from repro.core.task import TaskSpec
from repro.exceptions import TraceError
from repro.experiments.runner import run_triggered
from repro.service import MonitoringService
from repro.triggers import TriggerPlan
from repro.workloads import TrafficDifferenceGenerator


def _live(values, trigger, task, level, suspend):
    """The pair as a plan on an engine service: sampled steps and the
    advance to the next due step after each."""
    service = MonitoringService(soa=True)
    service.add_task("trigger", TaskSpec(threshold=1e300,
                                         error_allowance=0.01))
    service.add_task("target", task)
    service.install_trigger_plan(TriggerPlan(
        "target", "trigger", level, suspend, hysteresis=0.0, min_hold=0))
    sampled, intervals = [], []
    for t, (value, trig) in enumerate(zip(values, trigger)):
        service.offer("trigger", float(trig), t)
        if service.offer("target", float(value), t) is not None:
            sampled.append(t)
            intervals.append(service.next_due("target") - t)
    return sampled, intervals


def _assert_one_gate(values, trigger, task, level, suspend):
    offline = run_triggered(values, trigger, task, level, suspend)
    sampled, intervals = _live(values, trigger, task, level, suspend)
    assert offline.sampled_indices.tolist() == sampled
    assert offline.intervals.tolist() == intervals


def _leads_by_two(steps: int = 20_000):
    """The trigger rises two steps before each 3-11 step violation."""
    rng = np.random.default_rng(1)
    target = rng.normal(50.0, 3.0, steps)
    trigger = rng.normal(10.0, 2.0, steps)
    at = 200
    while at < steps - 50:
        length = int(rng.integers(3, 12))
        target[at:at + length] = rng.normal(120.0, 3.0, length)
        trigger[at - 2:at + length] = rng.normal(40.0, 2.0, length + 2)
        at += length + int(rng.integers(150, 400))
    return target, trigger


def _benchmark_streams(n: int = 30_000):
    """``benchmarks/test_correlation.py``'s response / rho pair."""
    from repro.simulation.randomness import RandomStreams
    rng = RandomStreams(17).stream("bench-correlation")
    response = 20.0 + rng.normal(0.0, 1.5, n)
    rho = TrafficDifferenceGenerator(burst_prob=0.0).generate(n, rng)
    for s in range(2500, n - 200, 2500):
        span = int(rng.integers(80, 140))
        response[s:s + span] += rng.uniform(120.0, 280.0)
        rho[s + 10:s + span - 10] += rng.uniform(2500.0, 6000.0)
    return rho, response


def test_trigger_leads_by_two():
    target, trigger = _leads_by_two()
    task = TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=10)
    _assert_one_gate(target, trigger, task, 25.0, 10)


def test_correlation_benchmark_stream():
    rho, response = _benchmark_streams()
    rule, = CorrelationPlanner(min_score=0.9, loss_budget=0.1).plan([
        TaskProfile(task_id="response", values=response, threshold=150.0,
                    cost_per_sample=1.0),
        TaskProfile(task_id="ddos", values=rho, threshold=1000.0,
                    cost_per_sample=40.0),
    ])
    task = TaskSpec(threshold=1000.0, error_allowance=0.01, max_interval=10)
    _assert_one_gate(rho, response, task, rule.elevation_level, 10)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=200),
       level=finite, suspend=st.integers(min_value=2, max_value=20),
       err=st.floats(min_value=0.0, max_value=0.5),
       max_interval=st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_any_pair(pairs, level, suspend, err, max_interval):
    values, trigger = (np.array(column) for column in zip(*pairs))
    task = TaskSpec(threshold=float(np.median(values)),
                    error_allowance=err, max_interval=max_interval)
    _assert_one_gate(values, trigger, task, level, suspend)


@pytest.mark.parametrize("which", ["values", "trigger"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_value_is_a_trace_error(which, bad):
    traces = {"values": np.zeros(8), "trigger": np.zeros(8)}
    traces[which][3] = bad
    task = TaskSpec(threshold=1.0, error_allowance=0.01)
    with pytest.raises(TraceError, match="finite"):
        run_triggered(traces["values"], traces["trigger"], task, 1.0)
