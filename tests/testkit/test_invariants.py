"""Unit tests for the paper-invariant checkers.

Includes the mutation check from docs/TESTING.md: a deliberately broken
allocation policy that leaks allowance MUST be caught by
``check_allowance_conservation`` — an invariant suite that cannot catch a
planted bug proves nothing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.coordination import (AdaptiveAllocation, AllocationPolicy,
                                     AllocationUpdate, EvenAllocation)
from repro.core.task import TaskSpec
from repro.runtime.checkpoint import state_fingerprint
from repro.service import MonitoringService
from repro.testkit.invariants import (ConservationCheckedPolicy,
                                      InvariantResult, LeakySketch,
                                      check_allowance_conservation,
                                      check_misdetection_bound,
                                      check_no_acked_loss,
                                      check_quantile_misdetection,
                                      check_restore_bit_identical)


class LeakyAllocation(AllocationPolicy):
    """Mutant: silently drops a slice of the first monitor's allowance.

    This is the planted bug of the docs/TESTING.md mutation check — the
    kind of defect a subtly wrong floor fixed-point or rounding choice
    would introduce in :class:`AdaptiveAllocation`.
    """

    def __init__(self, leak: float = 0.02):
        self.inner = AdaptiveAllocation()
        self.leak = leak

    def reallocate(self, current, reports, total_error):
        update = self.inner.reallocate(current, reports, total_error)
        if not update.reallocated:
            return update
        allocations = list(update.allocations)
        allocations[0] *= (1.0 - self.leak)  # allowance vanishes here
        return AllocationUpdate(allocations=tuple(allocations),
                                reallocated=True)


class TestAllowanceConservation:
    @pytest.mark.parametrize("policy", [AdaptiveAllocation(),
                                        EvenAllocation()])
    def test_correct_policies_pass(self, policy):
        result = check_allowance_conservation(policy, seed=7)
        assert result.passed, result.detail
        assert result.metrics["violations"] == 0
        assert result.metrics["reallocated_rounds"] > 0 \
            or isinstance(policy, EvenAllocation)
        assert result.metrics["final_sum"] \
            == pytest.approx(result.metrics["total_error"])

    def test_planted_leak_is_caught(self):
        """The mutation check: a 2% leak must fail the invariant."""
        result = check_allowance_conservation(LeakyAllocation(0.02), seed=7)
        assert not result.passed
        assert result.metrics["violations"] > 0
        assert "sum to" in result.detail

    def test_even_a_tiny_leak_is_caught(self):
        # The tolerance is relative (1e-9): far smaller leaks than any
        # plausible rounding noise must still be flagged.
        result = check_allowance_conservation(LeakyAllocation(1e-6), seed=7)
        assert not result.passed

    def test_negative_allocation_is_caught(self):
        class NegativePolicy(AllocationPolicy):
            def reallocate(self, current, reports, total_error):
                allocations = (-total_error,) \
                    + (2.0 * total_error / (len(current) - 1),) \
                    * (len(current) - 1)
                return AllocationUpdate(allocations=allocations,
                                        reallocated=True)

        result = check_allowance_conservation(NegativePolicy(), seed=7)
        assert not result.passed
        assert "negative" in result.detail

    def test_wrapper_is_a_drop_in_policy(self):
        checked = ConservationCheckedPolicy(AdaptiveAllocation())
        current = checked.initial(4, 0.01)
        assert sum(current) == pytest.approx(0.01)
        assert checked.rounds == 0 and not checked.violations

    def test_deterministic_for_a_seed(self):
        a = check_allowance_conservation(AdaptiveAllocation(), seed=13)
        b = check_allowance_conservation(AdaptiveAllocation(), seed=13)
        assert a.to_dict() == b.to_dict()


class TestMisdetectionBound:
    def test_adaptive_sampler_meets_its_bound(self):
        result = check_misdetection_bound(seed=7, err=0.05)
        assert result.passed, result.detail
        assert result.metrics["truth_alerts"] > 0
        assert result.metrics["misdetection_rate"] <= 0.05
        # The whole point of adaptive sampling: well under 100% sampling.
        assert result.metrics["sampling_ratio"] < 0.8

    def test_deterministic_for_a_seed(self):
        a = check_misdetection_bound(seed=29)
        b = check_misdetection_bound(seed=29)
        assert a.to_dict() == b.to_dict()

    def test_result_is_json_able(self):
        result = check_misdetection_bound(seed=7)
        assert json.loads(json.dumps(result.to_dict())) == result.to_dict()


class TestQuantileMisdetection:
    def test_quantile_task_meets_its_bound(self):
        result = check_quantile_misdetection(seed=7, err=0.05)
        assert result.passed, result.detail
        assert result.metrics["truth_points"] > 0
        assert result.metrics["misdetection_rate"] <= 0.05
        assert not result.metrics["planted_sketch"]
        # Adaptive even on the derived exceedance stream: the calm
        # phases between regressions must grow the interval.
        assert result.metrics["sampling_ratio"] < 0.8

    def test_planted_leaky_sketch_is_caught(self):
        """The mutation check for the sketch substrate: a sketch that
        silently drops tail observations starves the exceedance
        statistic and MUST fail the mis-detection invariant."""
        result = check_quantile_misdetection(
            seed=7, err=0.05,
            sketch_factory=lambda: LeakySketch(drop_above=81.0))
        assert not result.passed
        assert result.metrics["planted_sketch"]
        assert result.metrics["misdetection_rate"] > 0.5
        assert "exceeds err" in result.detail

    def test_leaky_sketch_looks_healthy_to_summaries(self):
        # The mutant is *silent*: count/mean/min/max all track the full
        # stream, only the tail buckets leak — which is why catching it
        # needs the invariant, not a summary-statistics sanity check.
        sketch = LeakySketch(drop_above=50.0)
        for v in (10.0, 40.0, 200.0):
            sketch.record(v)
        assert sketch.count == 3
        assert sketch.max == 200.0
        assert sketch.mean == pytest.approx(250.0 / 3)
        assert sketch.tail_count(50.0) == 0  # the leak

    def test_deterministic_for_a_seed(self):
        a = check_quantile_misdetection(seed=29)
        b = check_quantile_misdetection(seed=29)
        assert a.to_dict() == b.to_dict()

    def test_result_is_json_able(self):
        result = check_quantile_misdetection(seed=7)
        assert json.loads(json.dumps(result.to_dict())) == result.to_dict()


class TestRestoreBitIdentical:
    def _snapshot(self):
        service = MonitoringService(AdaptationConfig(patience=3,
                                                     min_samples=4))
        service.add_task("t", TaskSpec(threshold=100.0,
                                       error_allowance=0.05,
                                       max_interval=8))
        rng = np.random.default_rng(5)
        for step, v in enumerate(rng.normal(70.0, 10.0, 200)):
            service.offer("t", float(v), step)
        return service.snapshot()

    def test_real_snapshot_roundtrips(self):
        result = check_restore_bit_identical(self._snapshot())
        assert result.passed, result.detail

    def test_fingerprint_ignores_key_order_only(self):
        snapshot = self._snapshot()
        reordered = json.loads(json.dumps(snapshot, sort_keys=True,
                                          default=np.ndarray.tolist))
        assert state_fingerprint(snapshot) \
            == state_fingerprint(reordered)
        mutated = json.loads(json.dumps(snapshot,
                                        default=np.ndarray.tolist))
        mutated["task"]["samples_taken"][0] += 1
        assert state_fingerprint(mutated) \
            != state_fingerprint(snapshot)

    def test_unrestorable_snapshot_fails_not_raises(self):
        result = check_restore_bit_identical({"version": 999, "tasks": []})
        assert isinstance(result, InvariantResult)
        assert not result.passed
        assert "restore raised" in result.detail


class TestNoAckedLoss:
    def test_matching_ledgers_pass(self):
        ledger = {"a": 10, "b": 0, "c": 7}
        result = check_no_acked_loss(ledger, dict(ledger))
        assert result.passed
        assert result.metrics["expected_total"] == 17

    def test_missing_updates_fail(self):
        result = check_no_acked_loss({"a": 10}, {"a": 9})
        assert not result.passed
        assert "lost 1" in result.detail
        assert result.metrics["tasks_missing"] == 1

    def test_phantom_updates_fail(self):
        # More applied than ACKed is also a violation: it means the
        # shadow accounting (or a duplicated apply) diverged.
        result = check_no_acked_loss({"a": 10}, {"a": 12})
        assert not result.passed
        assert "more update" in result.detail
        assert result.metrics["tasks_extra"] == 1
