"""Unit tests for the sketch-backed task-type substrates.

Covers construction validation, epoch rotation, exceedance/entropy
arithmetic against exact references, the checkpoint contract
(``to_columns`` -> ``from_columns`` answers every query
bit-identically) and the testkit sketch-factory seam.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.substrates import (DEFAULT_ENTROPY_WINDOW,
                                   DEFAULT_SKETCH_WINDOW, EntropyEstimator,
                                   QuantileEstimator, TASK_TYPES)
from repro.exceptions import ConfigurationError
from repro.telemetry.histogram import LogHistogram


def columns(est):
    """One estimator's column form as its JSON (wire) form: lists, so
    two compare with ``==``."""
    return json.loads(json.dumps(type(est).to_columns([est]),
                                 default=np.ndarray.tolist))


def restored(est):
    """The estimator its JSON column form restores to."""
    return type(est).from_columns(columns(est))[0]


class TestTaskTypes:
    def test_catalogue(self):
        assert TASK_TYPES == ("value", "quantile", "entropy")
        assert DEFAULT_SKETCH_WINDOW >= 1
        assert DEFAULT_ENTROPY_WINDOW >= 2


class TestQuantileEstimatorConstruction:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_must_be_open_interval(self, q):
        with pytest.raises(ConfigurationError):
            QuantileEstimator(q)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            QuantileEstimator(0.99, window=0)

    def test_defaults(self):
        est = QuantileEstimator(0.99)
        assert est.window == DEFAULT_SKETCH_WINDOW
        assert est.count == 0
        assert est.exceedance(10.0) == 0.0


class TestQuantileEstimatorRotation:
    def test_epoch_rotation_bounds_the_window(self):
        est = QuantileEstimator(0.9, window=10)
        for i in range(35):
            est.update(float(i))
        # Queries span sealed + current: between window and 2*window.
        assert 10 <= est.count <= 20
        assert est.count == 15  # 3 full epochs sealed/discarded + 5

    def test_old_epochs_are_forgotten(self):
        est = QuantileEstimator(0.9, window=5)
        for _ in range(10):
            est.update(1000.0)
        # Two full epochs of regime change push the old tail out.
        for _ in range(10):
            est.update(1.0)
        assert est.exceedance(500.0) == 0.0

    def test_exceedance_matches_exact_fraction(self):
        # Values far from the threshold: sketch bucket resolution can
        # never blur which side they fall on.
        est = QuantileEstimator(0.9, window=100)
        for v in [10.0] * 70 + [200.0] * 30:
            est.update(v)
        assert est.exceedance(100.0) == pytest.approx(0.3)

    def test_exceedance_sums_sealed_and_current(self):
        est = QuantileEstimator(0.9, window=4)
        for v in (200.0, 200.0, 1.0, 1.0):   # sealed epoch: 2/4 above
            est.update(v)
        est.update(200.0)                    # current epoch: 1/1 above
        assert est.exceedance(100.0) == pytest.approx(3.0 / 5.0)

    def test_quantile_value_tracks_the_tail(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(3.0, 0.5, 200)
        est = QuantileEstimator(0.99, window=200)
        for v in values:
            est.update(float(v))
        exact = float(np.sort(values)[int(0.99 * (len(values) - 1))])
        assert est.quantile_value() == pytest.approx(exact, rel=0.03)


class TestQuantileEstimatorCheckpoint:
    def test_state_roundtrips_bit_identically(self):
        rng = np.random.default_rng(11)
        est = QuantileEstimator(0.95, window=16)
        for v in rng.lognormal(2.0, 0.4, 40):
            est.update(float(v))
        clone = restored(est)
        assert columns(clone) == columns(est)
        for v in rng.lognormal(2.0, 0.4, 40):
            est.update(float(v))
            clone.update(float(v))
            assert clone.exceedance(9.0) == est.exceedance(9.0)
            assert clone.quantile_value() == est.quantile_value()
        assert columns(clone) == columns(est)

    def test_planted_factory_resets_and_sticks(self):
        est = QuantileEstimator(0.9, window=4)
        for _ in range(6):
            est.update(500.0)
        built = []

        def factory():
            sketch = LogHistogram()
            built.append(sketch)
            return sketch

        est.plant_sketch_factory(factory)
        assert est.count == 0  # planting resets the window
        for _ in range(9):
            est.update(500.0)
        # Initial sketch + two rotations, all from the planted factory.
        assert len(built) == 3


class TestQuantileEstimatorWatch:
    """The first threshold asked of ``exceedance`` is watched by both
    epochs from then on; the answers are the bucket walks' all the same."""

    @staticmethod
    def walked(est, threshold):
        tail = sum(
            LogHistogram.from_dict(sketch.to_dict()).tail_count(threshold)
            for sketch in (est._current, est._sealed) if sketch is not None)
        return tail / est.count

    def test_watch_is_adopted_once_and_carried_across_rotations(self):
        rng = np.random.default_rng(13)
        est = QuantileEstimator(0.9, window=8)
        assert est.exceedance(40.0) == 0.0          # empty: nothing yet
        assert math.isnan(est._current._watched)
        for n, v in enumerate(rng.normal(40.0, 10.0, 100)):
            est.update(float(v))
            assert est.exceedance(40.0) == self.walked(est, 40.0)
            # Another threshold walks and does not move the watch.
            assert est.exceedance(45.0) == self.walked(est, 45.0)
            for sketch in (est._current, est._sealed):
                assert sketch is None or sketch._watched == 40.0
            if n >= 8:
                assert est._current._pos_from == est._sealed._pos_from

    def test_restore_and_planting_keep_the_answers(self):
        rng = np.random.default_rng(17)
        est = QuantileEstimator(0.9, window=8)
        values = [float(v) for v in rng.normal(0.0, 10.0, 60)]
        for v in values[:30]:
            est.update(v)
            est.exceedance(-2.0)
        clone = QuantileEstimator.from_columns(
            QuantileEstimator.to_columns([est]))[0]
        assert math.isnan(clone._current._watched)  # derived, not saved
        for v in values[30:]:
            est.update(v)
            clone.update(v)
            assert clone.exceedance(-2.0) == est.exceedance(-2.0) \
                == self.walked(est, -2.0)
        assert columns(clone) == columns(est)
        # A planted factory of another bucket base: the watch follows,
        # with cut-offs of its own.
        est.plant_sketch_factory(lambda: LogHistogram(relative_error=0.05))
        assert est._current._watched == -2.0
        for v in values:
            est.update(v)
            assert est.exceedance(-2.0) == self.walked(est, -2.0)

    def test_quantile_value_is_the_merged_sketch_quantile(self):
        rng = np.random.default_rng(23)
        for q in (0.05, 0.5, 0.99):
            est = QuantileEstimator(q, window=16)
            for v in rng.normal(0.0, 5.0, 90):
                est.update(float(v) if abs(v) > 1.0 else 0.0)
                merged = LogHistogram.from_dict(est._current.to_dict())
                if est._sealed is not None:
                    merged.merge(est._sealed)
                assert est.quantile_value() == merged.quantile(q)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_update_is_refused_whole(self, bad):
        est = QuantileEstimator(0.9, window=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            est.update(v)
        est.exceedance(2.5)
        before = columns(est)
        with pytest.raises(ValueError, match="non-finite"):
            est.update(bad)
        assert columns(est) == before
        assert est.exceedance(2.5) == self.walked(est, 2.5)


class TestEntropyEstimatorConstruction:
    def test_window_must_be_at_least_two(self):
        with pytest.raises(ConfigurationError):
            EntropyEstimator(window=1)

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_bin_width_must_be_positive(self, width):
        with pytest.raises(ConfigurationError):
            EntropyEstimator(bin_width=width)

    def test_empty_entropy_is_zero(self):
        assert EntropyEstimator().entropy() == 0.0


class TestEntropyEstimatorArithmetic:
    def test_uniform_symbols_hit_log2_k(self):
        est = EntropyEstimator(window=16, bin_width=1.0)
        for i in range(16):
            est.update(float(i % 4))
        assert est.entropy() == pytest.approx(2.0)

    def test_constant_stream_has_zero_entropy(self):
        est = EntropyEstimator(window=8, bin_width=1.0)
        for _ in range(20):
            est.update(3.25)
        assert est.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_binning_floors_to_bin_width(self):
        est = EntropyEstimator(window=4, bin_width=10.0)
        for v in (1.0, 9.9, 12.0, 19.0):  # bins 0, 0, 1, 1
            est.update(v)
        assert est.entropy() == pytest.approx(1.0)

    def test_window_evicts_oldest(self):
        est = EntropyEstimator(window=4, bin_width=1.0)
        for v in (0.0, 1.0, 2.0, 3.0):
            est.update(v)
        assert est.entropy() == pytest.approx(2.0)
        for _ in range(4):
            est.update(7.0)  # collapse: the diverse prefix evicted
        assert est.count == 4
        assert est.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_empirical_entropy(self):
        rng = np.random.default_rng(3)
        values = rng.normal(50.0, 20.0, 200)
        est = EntropyEstimator(window=64, bin_width=8.0)
        for v in values:
            est.update(float(v))
        tail = [int(math.floor(v / 8.0)) for v in values[-64:]]
        counts = {}
        for s in tail:
            counts[s] = counts.get(s, 0) + 1
        exact = -sum((c / 64) * math.log2(c / 64) for c in counts.values())
        assert est.entropy() == pytest.approx(exact, abs=1e-9)


class TestEntropyEstimatorCheckpoint:
    def test_state_roundtrips_bit_identically(self):
        rng = np.random.default_rng(19)
        est = EntropyEstimator(window=12, bin_width=4.0)
        for v in rng.normal(30.0, 15.0, 30):
            est.update(float(v))
        clone = restored(est)
        assert columns(clone) == columns(est)
        for v in rng.normal(30.0, 15.0, 30):
            est.update(float(v))
            clone.update(float(v))
            assert clone.entropy() == est.entropy()
        assert columns(clone) == columns(est)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_update_is_refused_whole(self, bad):
        # One error for all of them (inf used to be an OverflowError),
        # 1e308 / 1e-3 included: its quotient is not finite either.
        est = EntropyEstimator(window=4, bin_width=1e-3)
        for v in (0.001, 0.002, 0.002, 0.004, 0.005):
            est.update(v)
        before, entropy = columns(est), est.entropy()
        with pytest.raises(ValueError, match="non-finite"):
            est.update(bad)
        assert columns(est) == before and est.entropy() == entropy
