"""Property tests for the log-bucketed quantile sketch.

The sketch's contract is a *relative* error bound: every reported
quantile is within ``alpha * |true value|`` of the exact sample quantile
(lower-rank convention) for magnitudes at least ``min_value``. Hypothesis
drives arbitrary bounded streams through that guarantee, plus the monoid
laws that make per-shard sketches mergeable.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.telemetry.histogram import LogHistogram

bounded = st.floats(min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False)
streams = st.lists(bounded, min_size=1, max_size=300)
QS = (0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def exact_quantile(values: list[float], q: float) -> float:
    """Lower-rank sample quantile (the sketch's stated convention)."""
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


def fill(values: list[float], alpha: float = 0.01) -> LogHistogram:
    sketch = LogHistogram(relative_error=alpha)
    for v in values:
        sketch.record(v)
    return sketch


class TestRelativeErrorBound:
    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_quantiles_within_alpha(self, values):
        alpha = 0.01
        sketch = fill(values, alpha)
        for q in QS:
            exact = exact_quantile(values, q)
            est = sketch.quantile(q)
            if q in (0.0, 1.0):
                # Extremes are exact order statistics, not bucket
                # midpoints — zero error regardless of magnitude.
                assert est == exact, f"q={q}: {est} vs exact {exact}"
            elif abs(exact) > sketch.min_value:
                bound = alpha * abs(exact) * (1 + 1e-9) + 1e-12
                assert abs(est - exact) <= bound, \
                    f"q={q}: {est} vs exact {exact}"
            else:
                # Sub-min_value magnitudes collapse into the zero bucket.
                assert est == 0.0

    @settings(max_examples=50, deadline=None)
    @given(streams, st.sampled_from([0.001, 0.05, 0.2]))
    def test_bound_scales_with_alpha(self, values, alpha):
        sketch = fill(values, alpha)
        for q in (0.5, 0.99):
            exact = exact_quantile(values, q)
            if abs(exact) > sketch.min_value:
                est = sketch.quantile(q)
                assert abs(est - exact) <= \
                    alpha * abs(exact) * (1 + 1e-9) + 1e-12

    def test_exact_min_max_mean(self):
        values = [3.0, -7.5, 0.25, 100.0]
        sketch = fill(values)
        assert sketch.min == -7.5
        assert sketch.max == 100.0
        assert sketch.mean == pytest.approx(sum(values) / len(values))
        assert sketch.count == 4

    def test_extreme_quantiles_are_exact(self):
        # Regression: q=0.0 / q=1.0 used to return bucket midpoints,
        # which are only within alpha of the true extremes. The sketch
        # tracks min/max exactly, so the extremes must be exact too.
        values = [3.0, -7.5, 0.25, 100.0]
        sketch = fill(values)
        assert sketch.quantile(0.0) == -7.5
        assert sketch.quantile(1.0) == 100.0
        # Interior quantiles still answer via bucket midpoints
        # (lower-rank convention: rank 1 of the sorted sample).
        assert sketch.quantile(0.5) == pytest.approx(0.25, rel=0.01)

    @settings(max_examples=100, deadline=None)
    @given(streams)
    def test_extremes_match_min_max_properties(self, values):
        sketch = fill(values)
        assert sketch.quantile(0.0) == sketch.min == min(values)
        assert sketch.quantile(1.0) == sketch.max == max(values)


class TestTailCount:
    @settings(max_examples=150, deadline=None)
    @given(streams, bounded)
    def test_tail_count_matches_reference(self, values, threshold):
        # The sketch counts a value toward the tail iff its *reported*
        # magnitude (bucket midpoint; 0.0 for the zero bucket) exceeds
        # the threshold — bucket-resolution exactness.
        sketch = fill(values)
        expected = 0
        for v in values:
            if abs(v) <= sketch.min_value:
                reported = 0.0
            else:
                key = sketch._index(abs(v))
                reported = math.copysign(sketch._bucket_value(key), v)
            if reported > threshold:
                expected += 1
        assert sketch.tail_count(threshold) == expected

    @settings(max_examples=100, deadline=None)
    @given(streams, streams, bounded)
    def test_tail_counts_add_across_sketches(self, a, b, threshold):
        # Integer tail counts are a monoid homomorphism: summing two
        # sketches' tails equals the merged sketch's tail. This is what
        # lets the quantile substrate query its rotating pair without
        # materialising a merge.
        merged = fill(a)
        merged.merge(fill(b))
        assert (fill(a).tail_count(threshold) + fill(b).tail_count(threshold)
                == merged.tail_count(threshold))

    def test_tail_count_empty(self):
        assert LogHistogram().tail_count(0.0) == 0


def walked_tail(sketch: LogHistogram, threshold: float) -> int:
    """``tail_count`` by the bucket walk, whatever ``sketch`` watches."""
    return LogHistogram.from_dict(sketch.to_dict()).tail_count(threshold)


def midpoint(sketch: LogHistogram, value: float) -> float:
    """The reported magnitude of ``value``'s bucket, signed."""
    if abs(value) <= sketch.min_value:
        return 0.0
    return math.copysign(sketch._bucket_value(sketch._index(abs(value))),
                         value)


tiny = st.floats(min_value=-1e-9, max_value=1e-9)
mixed_streams = st.lists(st.one_of(bounded, bounded, tiny),
                         min_size=1, max_size=200)


class TestWatchedTail:
    """The running counter for one watched threshold is the walk's own
    answer, whatever the threshold's sign and wherever it falls."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_streams, st.one_of(bounded, tiny, st.just(0.0)),
           st.integers(min_value=0, max_value=200), st.booleans())
    def test_counter_equals_the_walk_after_every_record(
            self, values, threshold, watch_at, on_midpoint):
        sketch = LogHistogram()
        if on_midpoint:
            # Exactly the reported value of a bucket the stream fills:
            # the predicate is strict, so that bucket stays out.
            threshold = midpoint(sketch, values[watch_at % len(values)])
        for n, v in enumerate(values):
            if n == watch_at:
                sketch._watch(threshold)
            sketch.record(v)
            if n >= watch_at:
                assert sketch._watched == threshold
                assert sketch._tail == walked_tail(sketch, threshold)
                assert sketch.tail_count(threshold) == sketch._tail

    @pytest.mark.parametrize("threshold", [
        50.0, -50.0, 0.0, 1e-12, -1e-12, math.inf, -math.inf, 1e308,
        -1e308, 5e-324])
    def test_every_sign_and_extreme_of_threshold(self, threshold):
        sketch = LogHistogram()
        sketch._watch(threshold)
        for v in (-1e300, -75.0, -50.0, -1.0, -1e-9, 0.0, 1e-10, 1e-9,
                  2e-9, 1.0, 49.0, 50.0, 51.0, 1e300):
            sketch.record(v, count=3)
            assert sketch._tail == walked_tail(sketch, threshold)
        assert sketch.tail_count(threshold) == sketch._tail

    def test_nan_watches_nothing(self):
        sketch = fill([-5.0, 0.0, 5.0])
        sketch._watch(math.nan)
        sketch.record(7.0)
        assert sketch._tail == 0 == sketch.tail_count(math.nan)
        assert sketch.tail_count(1.0) == 2

    @settings(max_examples=100, deadline=None)
    @given(mixed_streams, mixed_streams, bounded, bounded)
    def test_merge_rewatch_and_other_thresholds(self, a, b, threshold,
                                                other):
        sketch = fill(a)
        sketch._watch(threshold)
        watching_too = fill(b)
        watching_too._watch(threshold)
        for source in (fill(b), watching_too):
            merged = LogHistogram.from_dict(sketch.to_dict())
            merged._watch(threshold)
            merged.merge(source)
            assert merged._tail == walked_tail(merged, threshold)
        # Any other threshold still walks, and leaves the watch alone.
        assert sketch.tail_count(other) == walked_tail(sketch, other)
        assert sketch._watched == threshold
        # A change of threshold is one recount; records follow the new one.
        sketch._watch(other)
        for v in b:
            sketch.record(v)
        assert sketch._tail == walked_tail(sketch, other)

    def test_cutoffs_are_lent_only_across_one_bucket_base(self):
        lender = LogHistogram()
        lender._watch(75.0)
        same, coarse = LogHistogram(), LogHistogram(relative_error=0.05)
        same._watch(75.0, like=lender)
        coarse._watch(75.0, like=lender)
        assert same._pos_from == lender._pos_from
        assert coarse._pos_from != lender._pos_from
        for sketch in (same, coarse):
            for v in range(60, 90):
                sketch.record(float(v))
            assert sketch._tail == walked_tail(sketch, 75.0)

    def test_the_watch_is_derived_state_and_never_serialised(self):
        sketch = fill([1.0, 60.0, 80.0])
        plain = sketch.to_dict()
        sketch._watch(50.0)
        assert sketch.to_dict() == plain
        restored = LogHistogram.from_dict(sketch.to_dict())
        assert math.isnan(restored._watched) and restored._tail == 0
        assert restored.tail_count(50.0) == sketch.tail_count(50.0) == 2


class TestMergeMonoid:
    @settings(max_examples=100, deadline=None)
    @given(streams, streams)
    def test_merge_commutes(self, a, b):
        ab = fill(a)
        ab.merge(fill(b))
        ba = fill(b)
        ba.merge(fill(a))
        assert ab.count == ba.count
        assert ab.total == pytest.approx(ba.total)
        for q in QS:
            assert ab.quantile(q) == ba.quantile(q)

    @settings(max_examples=100, deadline=None)
    @given(streams, streams, streams)
    def test_merge_associates(self, a, b, c):
        left = fill(a)
        bc = fill(b)
        bc.merge(fill(c))
        left_first = fill(a)
        left_first.merge(fill(b))
        left_first.merge(fill(c))
        left.merge(bc)
        assert left.count == left_first.count
        for q in QS:
            assert left.quantile(q) == left_first.quantile(q)

    @settings(max_examples=100, deadline=None)
    @given(streams, streams)
    def test_merge_equals_concatenation(self, a, b):
        merged = fill(a)
        merged.merge(fill(b))
        whole = fill(a + b)
        assert merged.count == whole.count
        for q in QS:
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ConfigurationError, match="relative errors"):
            LogHistogram(relative_error=0.01).merge(
                LogHistogram(relative_error=0.02))


class TestSerialisation:
    @settings(max_examples=100, deadline=None)
    @given(streams)
    def test_roundtrip_preserves_queries(self, values):
        sketch = fill(values)
        clone = LogHistogram.from_dict(sketch.to_dict())
        assert clone.count == sketch.count
        assert clone.min == sketch.min and clone.max == sketch.max
        for q in QS:
            assert clone.quantile(q) == sketch.quantile(q)

    def test_roundtrip_is_json_able(self):
        import json
        sketch = fill([1.0, -2.0, 0.0, 1e-12, 250.75])
        entry = json.loads(json.dumps(sketch.to_dict()))
        assert LogHistogram.from_dict(entry).quantile(0.5) == \
            sketch.quantile(0.5)


class TestValidation:
    def test_bad_relative_error(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                LogHistogram(relative_error=alpha)

    def test_bad_min_value(self):
        with pytest.raises(ConfigurationError):
            LogHistogram(min_value=0.0)

    def test_bad_quantile(self):
        sketch = fill([1.0])
        for q in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                sketch.quantile(q)

    def test_bad_record_count(self):
        with pytest.raises(ValueError):
            LogHistogram().record(1.0, count=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_refused_before_any_field_moves(self, bad):
        # inf used to raise out of the bucket index after count / total /
        # min / max had moved; NaN was filed in the zero bucket and
        # turned total and mean into NaN for good.
        for sketch in (LogHistogram(), fill([-3.0, 0.0, 42.0])):
            sketch._watch(-1.0)
            before, tail = sketch.to_dict(), sketch._tail
            with pytest.raises(ValueError, match="non-finite"):
                sketch.record(bad)
            with pytest.raises(ValueError, match="non-finite"):
                sketch.record(bad, count=4)
            assert sketch.to_dict() == before and sketch._tail == tail
            assert sketch.quantile(0.5) == LogHistogram.from_dict(
                before).quantile(0.5)

    def test_empty_sketch_answers_zero(self):
        sketch = LogHistogram()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.min == 0.0 and sketch.max == 0.0 and sketch.mean == 0.0
