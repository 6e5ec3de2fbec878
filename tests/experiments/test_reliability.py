"""Tests for the message-loss reliability experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.task import DistributedTaskSpec
from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.exceptions import ConfigurationError
from repro.experiments.distributed import _run_batch
from repro.experiments.reliability import reliability_experiment


class ScriptedDraws:
    """A loss generator whose draws are given up front; records the size
    of every ``random`` call."""

    def __init__(self, *draws: float):
        self.draws = list(draws)
        self.calls: list[int] = []

    def random(self, size: int) -> np.ndarray:
        self.calls.append(size)
        out, self.draws = self.draws[:size], self.draws[size:]
        return np.asarray(out)


def lossy_run(traces, loss, err=0.0):
    """One two-monitor task (local thresholds 100) with a lossy network:
    ``(result, sampled)``."""
    traces = np.asarray(traces, dtype=float)
    spec = DistributedTaskSpec(global_threshold=200.0,
                               local_thresholds=(100.0, 100.0),
                               error_allowance=err, max_interval=10)
    sampled = np.zeros(traces.T.shape, dtype=bool)
    [result] = _run_batch([(traces, spec, None)],
                          AdaptationConfig(patience=3, min_samples=5),
                          keep_polls=True, loss=loss, sampled=sampled)
    return result, sampled


def two_reporters(n=20, step=5):
    """Both monitors cross their local threshold at ``step`` only."""
    traces = np.zeros((2, n))
    traces[:, step] = 150.0
    return traces


class TestLossyNetwork:
    def test_reliable_by_default(self):
        # At loss 0 the generator is never drawn and nothing is dropped.
        rng = ScriptedDraws()
        result, _ = lossy_run(two_reporters(), (0.0, rng))
        assert rng.calls == []
        assert result.dropped_reports == 0
        assert result.global_polls == 1

    @pytest.mark.parametrize("draws, polls, dropped", [
        ((0.1, 0.2), 0, 2),   # both reports lost: no poll
        ((0.1, 0.9), 1, 1),   # one arrives: the poll happens
        ((0.9, 0.1), 1, 1),
        ((0.9, 0.9), 1, 0),
    ])
    def test_a_poll_needs_one_delivered_report(self, draws, polls, dropped):
        rng = ScriptedDraws(*draws)
        result, _ = lossy_run(two_reporters(), (0.5, rng))
        assert rng.calls == [2]  # one draw per report, in one step
        assert result.global_polls == polls
        assert result.detected_alerts == polls
        assert result.dropped_reports == dropped
        assert result.local_violations == 2

    def test_reports_draw_in_row_order(self):
        # Two tasks side by side, one reporter each at step 5: the first
        # draw decides task 0's report, the second task 1's.
        spec = DistributedTaskSpec(global_threshold=200.0,
                                   local_thresholds=(100.0, 100.0),
                                   error_allowance=0.0)
        solo = np.zeros((2, 20))
        solo[0, 5] = 150.0
        rng = ScriptedDraws(0.1, 0.9)
        first, second = _run_batch([(solo, spec, None), (solo[::-1], spec,
                                                         None)],
                                   loss=(0.5, rng))
        assert rng.calls == [2]
        assert (first.global_polls, first.dropped_reports) == (0, 1)
        assert (second.global_polls, second.dropped_reports) == (1, 0)

    def test_forced_samples_make_no_draw(self):
        # Monitor 0 hovers below its threshold, monitor 1 idles on a flat
        # stream. Both cross at a step only monitor 0 is due at: the poll
        # forces monitor 1 to sample its crossing, which files no report.
        hot = 95.0 + np.random.default_rng(0).normal(0.0, 1.0, 300)
        flat = np.ones(300)
        _, before = lossy_run([hot, flat], None, err=0.05)
        step = next(t for t in range(100, 300)
                    if before[t, 0] and not before[t, 1])
        hot[step] = flat[step] = 150.0
        rng = ScriptedDraws(0.9)
        result, sampled = lossy_run([hot, flat], (0.5, rng), err=0.05)
        assert rng.calls == [1]
        assert sampled[step, 1]
        assert result.local_violations == 1
        assert result.global_polls == result.detected_alerts == 1
        assert result.dropped_reports == 0

    def test_loss_rate_realised(self):
        config = TestbedConfig(num_servers=1, vms_per_server=4,
                               servers_per_coordinator=1,
                               horizon_steps=3000, error_allowance=0.0,
                               selectivity_percent=10.0, distributed=True,
                               message_loss_rate=0.3, seed=0)
        testbed = build_testbed(config)
        testbed.run()
        [group] = testbed.group_runs
        assert group.local_violations > 500
        assert group.dropped_reports / group.local_violations == \
            pytest.approx(0.3, abs=0.05)
        # Reports are counted as sent whether or not they arrive.
        assert testbed.coordination_messages()["violation-report"] == \
            group.local_violations

    def test_bad_loss_rate(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(message_loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            TestbedConfig(message_loss_rate=-0.1)


class TestReliabilityExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return reliability_experiment(loss_rates=(0.0, 0.2, 0.4),
                                      horizon=900)

    def test_reliable_network_has_full_recall(self, result):
        assert result.recalls[0] == 1.0
        assert result.dropped_reports[0] == 0
        assert result.truth_alerts > 0

    def test_recall_degrades_with_loss(self, result):
        assert result.recalls[-1] < result.recalls[0]
        # With a single reporter, recall tracks the delivery probability.
        assert result.recalls[-1] == pytest.approx(0.6, abs=0.25)

    def test_drops_increase_with_loss(self, result):
        assert result.dropped_reports[-1] > result.dropped_reports[1] > 0

    def test_report_renders(self, result):
        assert "message loss" in result.report()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            reliability_experiment(loss_rates=())
        with pytest.raises(ConfigurationError):
            reliability_experiment(loss_rates=(1.5,))
