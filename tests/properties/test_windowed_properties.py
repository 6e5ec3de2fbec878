"""Hypothesis properties for ``repro.core.windowed`` aggregation.

The sliding max/min use a monotonic deque whose pruning rules (evict
indices that left the window, evict dominated values from the back) are
exactly the kind of code a subtle off-by-one breaks silently. The
properties pin every aggregate to a brute-force reference over the same
partial-window alignment, for arbitrary streams and window lengths.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.core.windowed import (AggregateKind, WindowedTaskSpec,
                                 aggregate_trace, run_windowed_adaptive)
from repro.experiments.runner import run_adaptive
from repro.service import MonitoringService

bounded = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
streams = st.lists(bounded, min_size=1, max_size=200)
windows = st.integers(min_value=1, max_value=60)


def reference(values, window, kind):
    """Brute-force trailing-window aggregate (the documented alignment:
    index t covers values[max(0, t-window+1) : t+1])."""
    out = []
    for t in range(len(values)):
        seg = values[max(0, t - window + 1):t + 1]
        if kind is AggregateKind.MEAN:
            out.append(sum(seg) / len(seg))
        elif kind is AggregateKind.SUM:
            out.append(sum(seg))
        elif kind is AggregateKind.MAX:
            out.append(max(seg))
        else:
            out.append(min(seg))
    return out


class TestAggregateTraceProperties:
    @given(values=streams, window=windows,
           kind=st.sampled_from([AggregateKind.MAX, AggregateKind.MIN]))
    @settings(max_examples=120, deadline=None)
    def test_extrema_match_brute_force_exactly(self, values, window, kind):
        """The deque-pruned extrema are exact — selection, not
        arithmetic — so equality is literal, not approximate."""
        got = aggregate_trace(np.asarray(values), window, kind)
        expected = reference(values, window, kind)
        assert got.tolist() == expected

    @given(values=streams, window=windows,
           kind=st.sampled_from([AggregateKind.MEAN, AggregateKind.SUM]))
    @settings(max_examples=120, deadline=None)
    def test_linear_aggregates_match_brute_force(self, values, window,
                                                 kind):
        got = aggregate_trace(np.asarray(values), window, kind)
        expected = np.asarray(reference(values, window, kind))
        # Cumulative-sum differencing vs direct summation: identical up
        # to float re-association only.
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.all(np.abs(got - expected) <= 1e-6 * scale)

    @given(values=streams, kind=st.sampled_from(list(AggregateKind)))
    @settings(max_examples=60, deadline=None)
    def test_window_one_is_the_identity(self, values, kind):
        got = aggregate_trace(np.asarray(values), 1, kind)
        assert got.tolist() == values

    @given(values=streams, window=windows)
    @settings(max_examples=60, deadline=None)
    def test_extrema_bracket_the_mean(self, values, window):
        arr = np.asarray(values)
        mean = aggregate_trace(arr, window, AggregateKind.MEAN)
        lo = aggregate_trace(arr, window, AggregateKind.MIN)
        hi = aggregate_trace(arr, window, AggregateKind.MAX)
        slack = 1e-6 * np.maximum(np.abs(arr).max(), 1.0)
        assert np.all(lo - slack <= mean) and np.all(mean <= hi + slack)

    @given(values=streams, extra=st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_window_longer_than_stream_degenerates_to_prefix(self, values,
                                                             extra):
        """A window that never fills behaves as the running aggregate —
        the deque must never prune an index that is still in range."""
        window = len(values) + extra
        arr = np.asarray(values)
        got = aggregate_trace(arr, window, AggregateKind.MAX)
        expected = np.maximum.accumulate(arr)
        assert got.tolist() == expected.tolist()


def _live_samples(values, window, kind, spec, soa):
    """The steps a live service offered every step of ``values`` takes
    a sample at."""
    service = MonitoringService(soa=soa)
    service.add_task("w", spec, window=window, window_kind=kind)
    return [step for step, value in enumerate(values.tolist())
            if service.offer("w", value, step) is not None], service


class TestLiveWindows:
    """A live windowed task's window takes every offer stepped after its
    newest entry, and a sample reads it (DESIGN.md S17): offered every
    step, it is the offline aggregate, bit for bit."""

    @given(seed=st.integers(0, 2 ** 16), window=st.integers(2, 32),
           kind=st.sampled_from(AggregateKind),
           err=st.sampled_from([0.05, 0.1, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_live_samples_are_the_offline_samples(self, seed, window, kind,
                                                  err):
        rng = np.random.default_rng(seed)
        values = rng.normal(60.0, 2.0, 400)
        start = int(rng.integers(50, 300))
        values[start:start + 40] += 35.0
        aggregated = aggregate_trace(values, window, kind)
        # Above the quiet stream, below the incident's peak.
        quiet = float(np.median(aggregated))
        spec = TaskSpec(threshold=quiet + 0.6 * (aggregated.max() - quiet),
                        error_allowance=err, max_interval=10)
        offline = run_adaptive(aggregated, spec).sampled_indices.tolist()
        assert offline != list(range(len(values)))
        for soa in (False, True):
            assert _live_samples(values, window, kind, spec,
                                 soa)[0] == offline, soa

    def test_a_sampled_stream_raises_no_false_alert(self):
        """A mean of 8 steps over a noisy stream with two incidents: the
        service once read a window of its samples only, took 1 773
        samples where the offline run takes 1 307, and raised 2 alerts
        at steps whose true mean was not above the threshold."""
        values = np.random.default_rng(5).normal(60.0, 8.0, 3000)
        values[1000:1040] += 50.0
        values[2000:2030] += 45.0
        spec = TaskSpec(threshold=90.0, error_allowance=0.05,
                        max_interval=10)
        truth = aggregate_trace(values, 8, AggregateKind.MEAN)
        offline = run_windowed_adaptive(values, WindowedTaskSpec(
            spec, 8, AggregateKind.MEAN))
        for soa in (False, True):
            taken, service = _live_samples(values, 8, AggregateKind.MEAN,
                                           spec, soa)
            assert taken == offline.sampled_indices.tolist()
            alerts = [alert.time_index for alert in service.alerts("w")]
            assert alerts and all(truth[step] > 90.0 for step in alerts)
            assert [alert.value for alert in service.alerts("w")] == [
                truth[step] for step in alerts]


def _windowed(service):
    """One windowed task per kind and window size of 2, 3 and 5."""
    names = []
    for kind in AggregateKind:
        for window in (2, 3, 5):
            name = f"w-{kind.value}-{window}"
            service.add_task(name, TaskSpec(
                threshold=90.0 * (window if kind is AggregateKind.SUM
                                  else 1), error_allowance=0.05,
                max_interval=6, name=name), window=window,
                window_kind=kind,
                config=AdaptationConfig(patience=2, min_samples=4))
            names.append(name)
    return names


@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_gapped_duplicate_and_late_steps_are_one_rule(seed, soa_differential):
    """Scalar ≡ engine on windowed tasks whose steps jump ahead, repeat
    and fall behind, in batches that repeat rows, with guards whose arm
    edges make a late step due again."""
    pair = soa_differential(soa_differential.population(4, "mixed"),
                            register_more=_windowed, kinds="chebyshev")
    rng = np.random.default_rng(seed)
    clock = np.zeros(len(pair.names), dtype=np.int64)
    for _ in range(60):
        tasks = rng.integers(0, len(pair.names), 3 * len(pair.names))
        steps = []
        for task in tasks.tolist():
            move = int(rng.choice([1, 1, 1, 2, 4, 9, 0, -1, -3]))
            clock[task] = max(clock[task] + move, 0)
            steps.append(int(clock[task]))
        pair.offer(tasks.tolist(), steps, [
            pair.draw(rng, task, step)
            for task, step in zip(tasks.tolist(), steps)])
    pair.check()
    pair.cross_restored().check()
