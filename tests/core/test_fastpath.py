"""Deterministic equivalence tests for the drive surfaces (DESIGN.md S27).

The sampler, the service and the runtime shard each expose a reference
surface (``observe`` / ``offer``) and a second way in (engine rows behind
``run_adaptive``, ``offer_fast``, a shard's columnar apply). These tests
drive both over the same inputs and require identical decision streams
and identical final state; ``tests/properties/test_lockstep_properties.py``
explores the same contract for many rows under randomised traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
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
    """The scalar sampler's own contract, which the bench-only
    ``observe_fast`` wrapper inherits."""

    def test_observe_reports_last_outcome_too(self):
        # The step's whole outcome rides the decision (a first sample has
        # no statistics yet, so its bound is 1 and the interval stays).
        decision = ViolationLikelihoodSampler(_task()).observe(20.0, 0)
        assert decision.violation and not (decision.grew or decision.reset)
        assert decision.misdetection_bound == 1.0
        assert decision.next_interval == 1

    def test_time_must_advance(self):
        sampler = ViolationLikelihoodSampler(_task())
        sampler.observe_fast(1.0, 5)
        with pytest.raises(ValueError):
            sampler.observe_fast(1.0, 5)

    def test_no_dict_allocated(self):
        sampler = ViolationLikelihoodSampler(_task())
        assert not hasattr(sampler, "__dict__")


class TestRunTraceEquivalence:
    """The offline driver (engine rows) against the reference driver."""

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

    def test_record_intervals_off(self):
        result = run_adaptive(_trace(), _task(), record_intervals=False)
        assert result.intervals.size == 0
        assert result.sampled_indices[0] == 0


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
