"""Property-based equivalence: fused fast path vs. reference (DESIGN.md S27).

Hypothesis drives randomised traces through the reference ``observe``
surface and the fused twins (``observe_fast``, whole-trace ``run_trace``)
under the conditions the optimisation could plausibly break: both
estimators, statistics restarts every few samples, recording disabled,
and coordinator-driven ``error_allowance`` retuning mid-run. The fast
path must reproduce the ``(sampled_indices, intervals, beta)`` streams
*exactly* — float equality, not approximation — and leave identical
sampler state behind.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.task import TaskSpec

values_st = st.floats(min_value=-50.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False)
traces_st = st.lists(values_st, min_size=25, max_size=220)
estimators_st = st.sampled_from(["chebyshev", "gaussian"])
thresholds_st = st.floats(min_value=1.0, max_value=40.0, allow_nan=False)
allowances_st = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)


def _build(trace_len: int, threshold: float, err: float, estimator: str,
           restart: int) -> tuple[TaskSpec, AdaptationConfig]:
    task = TaskSpec(threshold=threshold, error_allowance=err,
                    max_interval=6, name="prop")
    config = AdaptationConfig(estimator=estimator, patience=3,
                              stats_restart=restart, min_samples=4)
    return task, config


def _reference_streams(values, task, config, allowance_plan=None):
    """Drive ``observe`` on its own schedule; return the decision streams."""
    sampler = ViolationLikelihoodSampler(task, config)
    sampled, intervals, betas = [], [], []
    t = 0
    while t < len(values):
        if allowance_plan and t in allowance_plan:
            sampler.error_allowance = allowance_plan[t]
        decision = sampler.observe(values[t], t)
        sampled.append(t)
        step = max(1, decision.next_interval)
        intervals.append(step)
        betas.append(decision.misdetection_bound)
        t += step
    return sampled, intervals, betas, sampler


class TestObserveFastProperties:
    @given(trace=traces_st, threshold=thresholds_st, err=allowances_st,
           estimator=estimators_st,
           restart=st.integers(min_value=5, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_schedule_streams_identical(self, trace, threshold, err,
                                        estimator, restart):
        task, config = _build(len(trace), threshold, err, estimator, restart)
        sampled, intervals, betas, ref = _reference_streams(
            trace, task, config)

        fast = ViolationLikelihoodSampler(task, config)
        got_sampled, got_intervals, got_betas = [], [], []
        t = 0
        while t < len(trace):
            got_sampled.append(t)
            step = max(1, fast.observe_fast(trace[t], t))
            got_intervals.append(step)
            got_betas.append(fast.last_misdetection_bound)
            t += step

        assert got_sampled == sampled
        assert got_intervals == intervals
        assert got_betas == betas  # exact float equality
        assert fast.state_dict() == ref.state_dict()

    @given(trace=traces_st, threshold=thresholds_st, err=allowances_st,
           estimator=estimators_st,
           restart=st.integers(min_value=5, max_value=30),
           record=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_run_trace_streams_identical(self, trace, threshold, err,
                                         estimator, restart, record):
        task, config = _build(len(trace), threshold, err, estimator, restart)
        sampled, intervals, _, ref = _reference_streams(trace, task, config)

        fast = ViolationLikelihoodSampler(task, config)
        got_sampled, got_intervals = fast.run_trace(
            trace, record_intervals=record)

        assert got_sampled == sampled
        assert got_intervals == (intervals if record else [])
        assert fast.state_dict() == ref.state_dict()
        assert fast.last_misdetection_bound == ref.last_misdetection_bound

    @given(trace=traces_st, threshold=thresholds_st, err=allowances_st,
           estimator=estimators_st,
           changes=st.lists(st.tuples(
               st.integers(min_value=0, max_value=200),
               st.floats(min_value=0.0, max_value=0.5, allow_nan=False)),
               min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_mid_run_allowance_changes_identical(self, trace, threshold,
                                                 err, estimator, changes):
        """Coordinator retuning between samples must not break equivalence."""
        task, config = _build(len(trace), threshold, err, estimator, 15)
        plan = dict(changes)
        sampled, intervals, betas, ref = _reference_streams(
            trace, task, config, allowance_plan=plan)

        fast = ViolationLikelihoodSampler(task, config)
        got_sampled, got_intervals, got_betas = [], [], []
        t = 0
        while t < len(trace):
            if t in plan:
                fast.error_allowance = plan[t]
            got_sampled.append(t)
            step = max(1, fast.observe_fast(trace[t], t))
            got_intervals.append(step)
            got_betas.append(fast.last_misdetection_bound)
            t += step

        assert got_sampled == sampled
        assert got_intervals == intervals
        assert got_betas == betas
        assert fast.state_dict() == ref.state_dict()

    @given(trace=traces_st, threshold=thresholds_st, err=allowances_st,
           estimator=estimators_st,
           changes=st.lists(st.tuples(
               st.integers(min_value=1, max_value=200),
               st.floats(min_value=0.0, max_value=0.5, allow_nan=False)),
               min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_run_trace_segments_with_retuning(self, trace, threshold, err,
                                              estimator, changes):
        """run_trace in coordinator epochs == stepwise observe with plan."""
        task, config = _build(len(trace), threshold, err, estimator, 15)
        plan = dict(changes)
        # The reference applies retunes at exact grid points; run_trace
        # hoists the allowance per call, so segment the trace at each
        # retune point and retune between segments. Only retunes landing
        # on a sample point take effect in the reference — align by
        # applying each segment's allowance before its first sample.
        boundaries = sorted(b for b in plan if b < len(trace))
        sampler_ref = ViolationLikelihoodSampler(task, config)
        sampled_ref, intervals_ref = [], []
        t = 0
        while t < len(trace):
            active = [b for b in boundaries if b <= t]
            if active:
                sampler_ref.error_allowance = plan[active[-1]]
            decision = sampler_ref.observe(trace[t], t)
            sampled_ref.append(t)
            step = max(1, decision.next_interval)
            intervals_ref.append(step)
            t += step

        fast = ViolationLikelihoodSampler(task, config)
        sampled_fast, intervals_fast = [], []
        t = 0
        segments = boundaries + [len(trace)]
        for end in segments:
            if t >= end:
                continue
            s, i = fast.run_trace(trace[:end], start=t)
            sampled_fast.extend(s)
            intervals_fast.extend(i)
            if s:
                t = s[-1] + max(1, fast.interval)
            if end <= t < len(trace):   # a retune no sample follows is moot
                active = [b for b in boundaries if b <= t]
                if active:
                    fast.error_allowance = plan[active[-1]]
        # Tail past the last boundary.
        if t < len(trace):
            active = [b for b in boundaries if b <= t]
            if active:
                fast.error_allowance = plan[active[-1]]
            s, i = fast.run_trace(trace, start=t)
            sampled_fast.extend(s)
            intervals_fast.extend(i)

        assert sampled_fast == sampled_ref
        assert intervals_fast == intervals_ref
        assert fast.state_dict() == sampler_ref.state_dict()
