"""Hypothesis properties for the sketch-backed task-type substrates.

Two contracts from the task-type design:

* **Quantile mis-detection bound** — on heavy-tail streams with planted
  tail regressions, the full service path (quantile task, exceedance
  statistic, violation-likelihood adaptation) must miss at most ``err``
  of the ground-truth violation points, for any seed.
* **Entropy analytic accuracy** — the windowed estimator must equal the
  exact empirical entropy of its window (it is not an approximation,
  only the accumulation order is constrained for bit-stable restore).
* **O(1) answers are the walks' answers** — the watched-tail counters
  behind ``exceedance`` and the two-sketch rank walk behind
  ``quantile_value`` must equal, exactly, a fresh bucket walk and the
  materialised merged sketch, through rotations, a checkpoint round
  trip, a merge and a planted sketch factory.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.substrates import EntropyEstimator, QuantileEstimator
from repro.telemetry.histogram import DEFAULT_MIN_VALUE, LogHistogram
from repro.testkit.invariants import (LeakySketch,
                                      check_quantile_misdetection)

bounded = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                    allow_infinity=False)


class TestQuantileMisdetectionProperty:
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=10, deadline=None)
    def test_heavy_tail_streams_meet_the_bound(self, seed):
        result = check_quantile_misdetection(seed=seed, err=0.05,
                                             streams=2, horizon=3000)
        assert result.metrics["truth_points"] > 0
        assert result.passed, result.detail

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           window=st.integers(min_value=2, max_value=50),
           n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_exceedance_equals_exact_fraction_for_separated_values(
            self, seed, window, n):
        """With values far from the threshold on both sides, sketch
        bucketing cannot blur the indicator: exceedance over the live
        window must equal the exact fraction of recent values above."""
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(n) < 0.3, 500.0, 5.0)
        est = QuantileEstimator(0.9, window=window)
        for v in values:
            est.update(float(v))
        # The estimator's view: the sealed epoch plus the current one.
        span = est.count
        recent = values[n - span:]
        exact = float(np.mean(recent > 100.0))
        assert est.exceedance(100.0) == exact

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           window=st.integers(min_value=4, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_quantile_value_within_relative_error_of_window(
            self, seed, window):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(2.0, 0.5, 3 * window)
        est = QuantileEstimator(0.9, window=window)
        for v in values:
            est.update(float(v))
        span = est.count
        recent = np.sort(values[values.size - span:])
        exact = float(recent[int(0.9 * (span - 1))])
        # Bucket-midpoint guarantee of the underlying sketch, plus the
        # lower-rank convention's one-rank slack at window boundaries.
        lo = float(recent[max(0, int(0.9 * (span - 1)) - 1)])
        hi = float(recent[min(span - 1, int(0.9 * (span - 1)) + 1)])
        assert lo * 0.97 <= est.quantile_value() <= hi * 1.03 \
            or est.quantile_value() == exact


def _fresh(sketch):
    """The sketch as a checkpoint would rebuild it: nothing watched."""
    return LogHistogram.from_dict(sketch.to_dict())


def _walked_exceedance(est, threshold):
    tail = sum(_fresh(sketch).tail_count(threshold)
               for sketch in (est._current, est._sealed)
               if sketch is not None)
    return tail / est.count if est.count else 0.0


def _merged_quantile(est):
    merged = _fresh(est._current)
    if est._sealed is not None:
        merged = _fresh(est._sealed)
        merged.merge(est._current)
    return merged.quantile(est.quantile)


def _midpoint(value, alpha):
    """The reported value of ``value``'s bucket (0.0 in the zero bucket)."""
    sketch = LogHistogram(relative_error=alpha)
    if abs(value) <= sketch.min_value:
        return 0.0
    return math.copysign(sketch._bucket_value(sketch._index(abs(value))),
                         value)


magnitudes = st.floats(min_value=1e-6, max_value=1e6)
repeated = st.sampled_from((1.0, -1.0, 64.0, -64.0))  # buckets hit again
stream_values = st.one_of(
    magnitudes, magnitudes.map(lambda v: -v),
    st.floats(min_value=-DEFAULT_MIN_VALUE, max_value=DEFAULT_MIN_VALUE),
    repeated)
operations = st.lists(st.one_of(
    st.tuples(st.just("update"), stream_values),
    st.tuples(st.just("update"), stream_values),
    st.tuples(st.just("update"), stream_values),
    st.tuples(st.just("roundtrip"), st.none()),
    st.tuples(st.just("merge"), st.lists(stream_values, max_size=6)),
    st.tuples(st.just("plant"), st.none())),
    min_size=1, max_size=120)


class TestAnswersAreTheWalksAnswers:
    @given(ops=operations,
           window=st.integers(min_value=1, max_value=12),
           quantile=st.sampled_from((0.05, 0.5, 0.9, 0.99)),
           alpha=st.sampled_from((0.01, 0.05)),
           threshold=stream_values,
           on_midpoint=st.none() | st.integers(min_value=0, max_value=119),
           query_from=st.integers(min_value=0, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_exceedance_and_quantile_value_are_exact(
            self, ops, window, quantile, alpha, threshold, on_midpoint,
            query_from):
        if on_midpoint is not None:
            # Exactly the reported value of a bucket the stream fills:
            # the tail predicate is strict, and the cut-off must leave
            # that bucket outside.
            op, arg = ops[on_midpoint % len(ops)]
            threshold = _midpoint(arg if op == "update" else threshold,
                                  alpha)
        est = QuantileEstimator(quantile, window=window,
                                relative_error=alpha)
        for n, (op, arg) in enumerate(ops):
            if op == "update":
                est.update(arg)
            elif op == "roundtrip":
                est = QuantileEstimator.from_columns(json.loads(json.dumps(
                    QuantileEstimator.to_columns([est]),
                    default=np.ndarray.tolist)))[0]
            elif op == "merge":
                other = LogHistogram(relative_error=alpha)
                for value in arg:
                    other.record(value)
                est._current.merge(other)
            else:
                est.plant_sketch_factory(
                    lambda: LogHistogram(relative_error=alpha))
            if n < query_from:
                continue           # the watch starts mid-stream
            assert est.exceedance(threshold) == _walked_exceedance(
                est, threshold)
            assert est.quantile_value() == _merged_quantile(est)
        if len(ops) > query_from and est.count:
            for sketch in (est._current, est._sealed):
                assert sketch is None or sketch._watched == threshold

    @given(values=st.lists(magnitudes, min_size=1, max_size=80),
           drop_above=magnitudes, threshold=magnitudes)
    @settings(max_examples=60, deadline=None)
    def test_a_record_override_starves_counter_and_buckets_alike(
            self, values, drop_above, threshold):
        est = QuantileEstimator(0.9, window=16, sketch_factory=lambda: (
            LeakySketch(drop_above=drop_above)))
        for value in values:
            est.update(value)
            assert est.exceedance(threshold) == _walked_exceedance(
                est, threshold)

    def test_planted_leaky_sketch_still_fails_the_invariant(self):
        result = check_quantile_misdetection(
            seed=11, err=0.05, streams=2, horizon=3000,
            sketch_factory=lambda: LeakySketch(drop_above=81.0))
        assert result.metrics["truth_points"] > 0
        assert not result.passed and "exceeds err" in result.detail


class TestEntropyAnalyticProperty:
    @given(values=st.lists(bounded, min_size=1, max_size=300),
           window=st.integers(min_value=2, max_value=80),
           bin_width=st.floats(min_value=1e-3, max_value=1e3,
                               allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_empirical_entropy(self, values, window,
                                             bin_width):
        est = EntropyEstimator(window=window, bin_width=bin_width)
        for v in values:
            est.update(float(v))
        tail = [int(math.floor(float(v) / bin_width))
                for v in values[-window:]]
        counts: dict[int, int] = {}
        for s in tail:
            counts[s] = counts.get(s, 0) + 1
        n = len(tail)
        exact = -sum((c / n) * math.log2(c / n) for c in counts.values())
        assert est.count == n
        assert est.entropy() == pytest.approx(exact, abs=1e-9)

    @staticmethod
    def sorted_entropy(est: EntropyEstimator) -> float:
        """The sort-per-read formula over the ring's own recount:
        ``c * log2(c)`` added in sorted-symbol order."""
        counts = Counter(est._symbols)
        n = len(est._symbols)
        if n == 0:
            return 0.0
        acc = 0.0
        for symbol in sorted(counts):
            c = counts[symbol]
            acc += c * math.log2(c)
        return math.log2(n) - acc / n

    @given(seed=st.integers(0, 2**32 - 1),
           window=st.one_of(st.integers(2, 40),
                            st.sampled_from([64, 255, 1024, 4096])),
           spread=st.sampled_from([1, 3, 40, 10_000]),
           extreme=st.floats(0.0, 0.2),
           restore_at=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_kept_order_equals_sorting_per_read(self, seed, window, spread,
                                                extreme, restore_at):
        """Symbols are born below, between and above the held ones and
        die out of the window; the kept-order read is the sort-per-read
        formula bit for bit, before and after a ``from_columns``
        round trip, and the table is in ascending symbol order unless an
        update marked it unsorted, and after every read."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2 * window + 40))
        drift = np.cumsum(rng.integers(-1, 2, n)) * spread / 4
        values = rng.integers(-spread, spread + 1, n) + drift
        edges = [1.7976931348623157e308, -1.7976931348623157e308, 1e300,
                 -5e-324, 5e-324, -0.0]  # symbols past 64 bits, and -1
        wild = rng.random(n) < extreme
        values[wild] = rng.choice(edges, int(wild.sum()))
        est = EntropyEstimator(window=window, bin_width=1.5)
        every = max(1, window // 64)
        cut = int(restore_at * n)
        for at, value in enumerate(values.tolist()):
            if at == cut:
                est, = EntropyEstimator.from_columns(json.loads(json.dumps(
                    EntropyEstimator.to_columns([est]),
                    default=np.ndarray.tolist)))
                assert est.entropy() == self.sorted_entropy(est)
            est.update(value)
            if at % every == 0:
                assert est.entropy() == self.sorted_entropy(est)
        assert est._counts == Counter(est._symbols)
        assert est._unsorted or list(est._counts) == sorted(est._counts)
        assert est.entropy() == self.sorted_entropy(est)
        assert list(est._counts) == sorted(est._counts)

    @given(values=st.lists(bounded, min_size=1, max_size=200),
           window=st.integers(min_value=2, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounded_by_log2_window(self, values, window):
        est = EntropyEstimator(window=window, bin_width=1.0)
        for v in values:
            est.update(float(v))
            h = est.entropy()
            assert 0.0 <= h <= math.log2(window) + 1e-9
