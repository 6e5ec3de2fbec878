"""Hypothesis property tests over the distributed-task runner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import ViolationLikelihoodSampler
from repro.core.coordination import AdaptiveAllocation, EvenAllocation
from repro.core.task import DistributedTaskSpec
from repro.experiments.distributed import (DistributedRunResult, _run_batch,
                                           run_distributed_task)
from repro.types import GlobalPoll

trace_values = st.floats(min_value=-100.0, max_value=300.0,
                         allow_nan=False)


@st.composite
def distributed_inputs(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=20, max_value=120))
    matrix = draw(st.lists(
        st.lists(trace_values, min_size=n, max_size=n),
        min_size=m, max_size=m))
    err = draw(st.floats(min_value=0.0, max_value=0.2, allow_nan=False))
    return np.asarray(matrix), err


@given(inputs=distributed_inputs(),
       adaptive=st.booleans())
@settings(max_examples=60, deadline=None)
def test_runner_invariants(inputs, adaptive):
    matrix, err = inputs
    m, n = matrix.shape
    spec = DistributedTaskSpec(
        global_threshold=200.0 * m,
        local_thresholds=(200.0,) * m,
        error_allowance=err, max_interval=5)
    policy = AdaptiveAllocation() if adaptive else EvenAllocation()
    result = run_distributed_task(matrix, spec, policy=policy,
                                  update_period=25, keep_polls=True)

    # Cost accounting is conserved and bounded.
    assert result.total_samples == sum(result.per_monitor_samples)
    assert all(1 <= s <= n for s in result.per_monitor_samples)
    assert 0.0 < result.sampling_ratio <= 1.0

    # Detection accounting: detected alerts are real alerts.
    assert 0 <= result.detected_alerts <= result.truth_alerts
    assert 0.0 <= result.misdetection_rate <= 1.0

    # Every poll sits on a step where some monitor locally violated; a
    # violated poll really crossed the global threshold.
    for poll in result.polls:
        assert 0 <= poll.time_index < n
        assert poll.violated == (poll.total > spec.global_threshold)
        assert any(v > t for v, t
                   in zip(poll.values, spec.local_thresholds))

    # Allowance conservation after any number of reallocations.
    assert sum(result.final_allocations) == pytest.approx(
        err, abs=1e-9) or not result.reallocations

    # Message accounting: one report per local violation, 2m per poll.
    assert result.messages == (result.local_violations
                               + 2 * m * result.global_polls)


@given(inputs=distributed_inputs())
@settings(max_examples=30, deadline=None)
def test_safety_no_global_violation_without_local(inputs):
    """sum(T_i) <= T guarantees: global crossing implies some local
    crossing, so periodic-grade runs never miss for lack of polls."""
    matrix, _ = inputs
    m, n = matrix.shape
    spec = DistributedTaskSpec(
        global_threshold=200.0 * m,
        local_thresholds=(200.0,) * m,
        error_allowance=0.0, max_interval=5)
    result = run_distributed_task(matrix, spec)
    # With err=0 every monitor samples every step, so every true global
    # alert is polled and detected: the decomposition itself is safe.
    assert result.misdetection_rate == 0.0


def _oracle(matrix, spec, policy, update_period):
    """The m x n loop over scalar samplers' ``observe``: the reference the
    batch driver's engine rows are held to."""
    m, n = matrix.shape
    allocations = policy.initial(m, spec.error_allowance)
    samplers = [ViolationLikelihoodSampler(spec.local_spec(i, share))
                for i, share in enumerate(allocations)]
    totals = matrix.sum(axis=0)
    truth = totals > spec.global_threshold
    next_due, samples = [0] * m, [0] * m
    local = polls = messages = reallocations = detected = 0
    poll_log, history = [], [tuple(allocations)]
    for t in range(n):
        due = [i for i in range(m) if next_due[i] == t]
        violated = [i for i in due if matrix[i, t] > spec.local_thresholds[i]]
        forced = [i for i in range(m) if i not in due] if violated else []
        for i in due + forced:
            decision = samplers[i].observe(float(matrix[i, t]), t)
            next_due[i] = t + decision.next_interval
            samples[i] += 1
        local += len(violated)
        messages += len(violated)
        if violated:
            polls += 1
            messages += 2 * m
            detected += bool(truth[t])
            poll_log.append(GlobalPoll(
                time_index=t, values=tuple(float(v) for v in matrix[:, t]),
                total=float(totals[t]), violated=bool(truth[t])))
        if (t + 1) % update_period == 0:
            update = policy.reallocate(
                allocations, [s.drain_coordination_stats() for s in samplers],
                spec.error_allowance)
            reallocations += update.reallocated
            allocations = update.allocations
            for sampler, share in zip(samplers, allocations):
                sampler.error_allowance = share
            history.append(tuple(allocations))
    alerts = int(np.count_nonzero(truth))
    return DistributedRunResult(
        total_samples=sum(samples), sampling_ratio=sum(samples) / (m * n),
        truth_alerts=alerts, detected_alerts=detected,
        misdetection_rate=0.0 if alerts == 0 else 1.0 - detected / alerts,
        global_polls=polls, local_violations=local, messages=messages,
        reallocations=reallocations, final_allocations=tuple(allocations),
        per_monitor_samples=tuple(samples), polls=tuple(poll_log),
        allocation_history=tuple(history))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                      max_size=4),
       n=st.integers(min_value=30, max_value=160),
       update_period=st.integers(min_value=7, max_value=40))
@settings(max_examples=15, deadline=None)
def test_batch_equals_oracle_loop(seed, sizes, n, update_period):
    """Tasks side by side in one engine — two of them on one shared
    matrix, both policies, allowances retuned mid-run — each equal,
    polls and allocation history included, to its own oracle loop."""
    rng = np.random.default_rng(seed)
    matrices = []
    for m in sizes:
        # Quiet walks (so intervals grow and polls find idle monitors)
        # with spikes, some of them on every monitor at once.
        matrix = (50.0 + np.cumsum(rng.normal(0.0, 0.1, (m, n)), axis=1)
                  + rng.normal(0.0, 0.2, (m, n)))
        matrix[rng.random((m, n)) < 0.02] += 40.0
        matrix[:, rng.random(n) < 0.02] += 40.0
        matrices.append(matrix)
    matrices.append(matrices[0])
    tasks = []
    for k, matrix in enumerate(matrices):
        local = tuple(float(rng.uniform(65.0, 75.0)) for _ in matrix)
        spec = DistributedTaskSpec(
            global_threshold=sum(local), local_thresholds=local,
            error_allowance=float(rng.choice([0.0, 0.01, 0.1])),
            max_interval=int(rng.integers(1, 9)))
        tasks.append((matrix, spec, AdaptiveAllocation() if k % 2
                      else EvenAllocation()))
    got = _run_batch(tasks, update_period=update_period, keep_polls=True,
                     keep_allocations=True)
    for (matrix, spec, policy), result in zip(tasks, got):
        fresh = type(policy)()
        assert result == _oracle(matrix, spec, fresh, update_period)
