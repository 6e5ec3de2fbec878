"""Deterministic equivalence tests for the fused fast path (DESIGN.md S27).

The sampler, the service and the runtime shard each expose a reference
surface (``observe`` / ``offer``) and an optimised twin (``observe_fast``
/ ``run_trace`` / ``offer_fast``). These tests drive both surfaces over
the same inputs and require identical decision streams and identical
final state; the property suite (``tests/properties``) explores the same
contract under randomised traces and mid-run retuning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.online_stats import WindowedStatistics
from repro.core.task import TaskSpec
from repro.experiments.runner import run_adaptive, run_sampler_on_trace
from repro.service import MonitoringService


def _trace(n: int = 4_000, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(0.0, 0.4, n)) * 0.05 + 10.0
    spikes = np.zeros(n)
    spikes[rng.integers(0, n, n // 100)] = rng.uniform(5.0, 15.0, n // 100)
    return base + spikes


def _task(threshold: float = 14.0, err: float = 0.05) -> TaskSpec:
    return TaskSpec(threshold=threshold, error_allowance=err,
                    max_interval=8, name="fastpath")


class TestObserveFastEquivalence:
    @pytest.mark.parametrize("estimator", ["chebyshev", "gaussian"])
    def test_streams_identical_at_every_grid_point(self, estimator):
        trace = _trace()
        config = AdaptationConfig(estimator=estimator)
        ref = ViolationLikelihoodSampler(_task(), config)
        fast = ViolationLikelihoodSampler(_task(), config)
        for t, value in enumerate(trace.tolist()):
            decision = ref.observe(value, t)
            interval = fast.observe_fast(value, t)
            assert interval == decision.next_interval
            assert fast.last_misdetection_bound == \
                decision.misdetection_bound
            assert fast.last_grew == decision.grew
            assert fast.last_reset == decision.reset
            assert fast.last_violation == decision.violation
        assert ref.state_dict() == fast.state_dict()

    def test_streams_identical_on_schedule(self):
        trace = _trace()
        config = AdaptationConfig()
        ref = ViolationLikelihoodSampler(_task(), config)
        fast = ViolationLikelihoodSampler(_task(), config)
        values = trace.tolist()
        t = 0
        while t < trace.size:
            decision = ref.observe(values[t], t)
            assert fast.observe_fast(values[t], t) == decision.next_interval
            t += max(1, decision.next_interval)
        assert ref.state_dict() == fast.state_dict()

    def test_observe_reports_last_outcome_too(self):
        sampler = ViolationLikelihoodSampler(_task())
        decision = sampler.observe(20.0, 0)
        assert decision.violation and sampler.last_violation
        assert sampler.last_misdetection_bound == \
            decision.misdetection_bound

    def test_mixing_surfaces_is_allowed(self):
        trace = _trace()
        values = trace.tolist()
        mixed = ViolationLikelihoodSampler(_task())
        ref = ViolationLikelihoodSampler(_task())
        for t, value in enumerate(values[:500]):
            ref.observe(value, t)
            if t % 2:
                mixed.observe(value, t)
            else:
                mixed.observe_fast(value, t)
        assert mixed.state_dict() == ref.state_dict()

    def test_time_must_advance(self):
        sampler = ViolationLikelihoodSampler(_task())
        sampler.observe_fast(1.0, 5)
        with pytest.raises(ValueError):
            sampler.observe_fast(1.0, 5)

    def test_no_dict_allocated(self):
        sampler = ViolationLikelihoodSampler(_task())
        assert not hasattr(sampler, "__dict__")


class TestRunTraceEquivalence:
    @pytest.mark.parametrize("estimator", ["chebyshev", "gaussian"])
    def test_matches_reference_driver(self, estimator):
        trace = _trace()
        task = _task()
        config = AdaptationConfig(estimator=estimator)
        reference = run_sampler_on_trace(
            trace, ViolationLikelihoodSampler(task, config), task.threshold,
            task.direction)
        fast = run_adaptive(trace, task, config)
        assert np.array_equal(reference.sampled_indices,
                              fast.sampled_indices)
        assert np.array_equal(reference.intervals, fast.intervals)
        assert reference.accuracy == fast.accuracy

    def test_matches_stepwise_observe_fast(self):
        trace = _trace()
        values = trace.tolist()
        batch = ViolationLikelihoodSampler(_task())
        stepwise = ViolationLikelihoodSampler(_task())
        sampled, intervals = batch.run_trace(values)
        expect_sampled, expect_intervals = [], []
        t = 0
        while t < len(values):
            expect_sampled.append(t)
            step = max(1, stepwise.observe_fast(values[t], t))
            expect_intervals.append(step)
            t += step
        assert sampled == expect_sampled
        assert intervals == expect_intervals
        assert batch.state_dict() == stepwise.state_dict()

    def test_record_intervals_off(self):
        values = _trace().tolist()
        sampler = ViolationLikelihoodSampler(_task())
        sampled, intervals = sampler.run_trace(values,
                                               record_intervals=False)
        assert intervals == []
        assert sampled[0] == 0

    def test_restartable_mid_trace(self):
        # Driving two half traces through run_trace equals one full drive.
        values = _trace().tolist()
        half = len(values) // 2
        whole = ViolationLikelihoodSampler(_task())
        split = ViolationLikelihoodSampler(_task())
        sampled_w, _ = whole.run_trace(values)
        sampled_a, _ = split.run_trace(values[:half])
        # Resume exactly where the first drive would sample next.
        resume = sampled_a[-1] + max(1, split.interval)
        sampled_b, _ = split.run_trace(values, start=resume)
        assert sampled_a + sampled_b == sampled_w
        assert whole.state_dict() == split.state_dict()

    def test_custom_stats_fall_back_to_stepwise(self):
        # A non-OnlineStatistics estimator must still drive correctly.
        values = _trace().tolist()[:800]
        task = _task()
        batch = ViolationLikelihoodSampler(task,
                                           stats=WindowedStatistics(64))
        stepwise = ViolationLikelihoodSampler(task,
                                              stats=WindowedStatistics(64))
        sampled, intervals = batch.run_trace(values)
        t = 0
        expect = []
        while t < len(values):
            expect.append(t)
            t += max(1, stepwise.observe_fast(values[t], t))
        assert sampled == expect

    def test_non_finite_value_raises_and_state_matches(self):
        values = [1.0, 2.0, float("nan"), 3.0]
        batch = ViolationLikelihoodSampler(_task())
        stepwise = ViolationLikelihoodSampler(_task())
        with pytest.raises(ValueError):
            batch.run_trace(values)
        with pytest.raises(ValueError):
            for t, v in enumerate(values):
                stepwise.observe_fast(v, t)
        assert batch.state_dict() == stepwise.state_dict()


class TestServiceOfferFast:
    def _service_pair(self):
        return MonitoringService(), MonitoringService()

    def test_offer_fast_matches_offer(self):
        ref_svc, fast_svc = self._service_pair()
        task = _task()
        for svc in (ref_svc, fast_svc):
            svc.add_task("cpu", task, window=3)
        trace = _trace(1_500).tolist()
        for step, value in enumerate(trace):
            decision = ref_svc.offer("cpu", value, step)
            interval = fast_svc.offer_fast("cpu", value, step)
            if decision is None:
                assert interval is None
            else:
                assert interval == decision.next_interval
        assert ref_svc.samples_taken("cpu") == fast_svc.samples_taken("cpu")
        assert ref_svc.interval("cpu") == fast_svc.interval("cpu")
        assert [a.time_index for a in ref_svc.alerts("cpu")] == \
            [a.time_index for a in fast_svc.alerts("cpu")]

    def test_offer_fast_with_trigger_gating(self):
        ref_svc, fast_svc = self._service_pair()
        for svc in (ref_svc, fast_svc):
            svc.add_task("net", _task(threshold=1e9))
            svc.add_task("disk", _task())
            svc.add_trigger("disk", "net", elevation_level=12.0,
                            suspend_interval=5)
        trace = _trace(1_200).tolist()
        trigger = _trace(1_200, seed=9).tolist()
        for step in range(len(trace)):
            ref_svc.offer("net", trigger[step], step)
            fast_svc.offer_fast("net", trigger[step], step)
            decision = ref_svc.offer("disk", trace[step], step)
            interval = fast_svc.offer_fast("disk", trace[step], step)
            assert (interval is None) == (decision is None)
            if decision is not None:
                assert interval == decision.next_interval
        assert ref_svc.next_due("disk") == fast_svc.next_due("disk")
        assert ref_svc.samples_taken("disk") == \
            fast_svc.samples_taken("disk")

    def test_offer_fast_snapshots_identical(self):
        ref_svc, fast_svc = self._service_pair()
        for svc in (ref_svc, fast_svc):
            svc.add_task("mem", _task())
        for step, value in enumerate(_trace(800).tolist()):
            ref_svc.offer("mem", value, step)
            fast_svc.offer_fast("mem", value, step)
        assert ref_svc.snapshot() == fast_svc.snapshot()


class TestShardApplyFastPath:
    @staticmethod
    def _batch(service, names, steps, values):
        from repro.runtime.shard import ColumnBatch

        rows = [service.soa_row_for(name) if name in service.task_names
                else -1 for name in names]
        return ColumnBatch(rows=np.asarray(rows, dtype=np.int64),
                           steps=np.asarray(steps, dtype=np.int64),
                           values=np.asarray(values, dtype=np.float64),
                           names=names)

    def test_apply_counts_consumed_and_rejected(self):
        from repro.runtime.shard import ShardWorker

        service = MonitoringService(soa=True)
        service.add_task("cpu", _task())
        worker = ShardWorker(0, service, queue_depth=4)
        # An unknown name and a non-finite value are each rejected on
        # their own; the rest of the batch applies.
        worker.apply_columns(self._batch(
            service, ["cpu", "cpu", "nope", "cpu"],
            [0, 1, 2, 3], [10.0, 10.5, 1.0, float("nan")]))
        assert worker.applied == 2
        assert worker.consumed >= 1
        assert worker.rejected == 2
        assert service.samples_taken("cpu") == worker.consumed

    def test_apply_matches_reference_offer(self):
        from repro.runtime.shard import ShardWorker

        fast_svc = MonitoringService(soa=True)
        fast_svc.add_task("cpu", _task())
        worker = ShardWorker(0, fast_svc, queue_depth=4)
        ref_svc = MonitoringService()
        ref_svc.add_task("cpu", _task())
        trace = _trace(1_000).tolist()
        worker.apply_columns(self._batch(
            fast_svc, ["cpu"] * len(trace), range(len(trace)), trace))
        for step, value in enumerate(trace):
            ref_svc.offer("cpu", value, step)
        assert ref_svc.snapshot() == fast_svc.snapshot()
