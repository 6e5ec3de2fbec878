"""Mergeable log-bucketed histogram sketch (DDSketch-style).

Datacenter telemetry pipelines need latency/size distributions that are
cheap to update on the hot path, bounded in memory, *mergeable* across
shards and restarts, and accurate at the tail — exactly the profile of
the relative-error quantile sketches used by production monitoring
systems (Lim et al., *Approximate Quantiles for Datacenter Telemetry
Monitoring*; DDSketch, VLDB'19). :class:`LogHistogram` is that sketch:

* values are binned by ``ceil(log_gamma |v|)`` with
  ``gamma = (1 + alpha) / (1 - alpha)``, so every bucket's midpoint is
  within relative error ``alpha`` of any value in the bucket;
* buckets are sparse dicts — memory is O(distinct magnitudes), not
  O(observations), and a quiet stream costs a handful of entries;
* :meth:`merge` adds bucket counts, making the sketch a commutative
  monoid: per-shard sketches combine into a server-wide view with no
  accuracy loss beyond the shared ``alpha``;
* :meth:`quantile` answers any ``q`` with the bucket-midpoint guarantee
  ``|est - exact| <= alpha * |exact|`` for values of magnitude at least
  ``min_value`` (smaller magnitudes collapse into an exact zero bucket).

The guarantee is *relative*, which is what monitoring wants: a p99 of
800 ms is reported within +/-1% of 800 ms (default ``alpha = 0.01``),
not within a fixed absolute error sized for the median.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Iterable

from repro.exceptions import ConfigurationError

__all__ = ["LogHistogram"]

DEFAULT_RELATIVE_ERROR = 0.01
DEFAULT_MIN_VALUE = 1e-9


class LogHistogram:
    """Sparse log-bucketed quantile sketch with a relative-error bound.

    Args:
        relative_error: ``alpha`` — the quantile accuracy guarantee;
            every reported quantile is within ``alpha * |true value|``
            of the true sample quantile (for magnitudes >= ``min_value``).
        min_value: magnitudes below this are counted in an exact zero
            bucket (reported as ``0.0``); keeps the index range finite.

    Thread-safety: none needed — the runtime mutates sketches from one
    event loop; merging across processes goes through :meth:`to_dict`.
    """

    __slots__ = ("relative_error", "min_value", "_gamma", "_log_gamma",
                 "count", "total", "zero_count", "_pos", "_neg",
                 "_min", "_max", "_watched", "_tail", "_pos_from",
                 "_neg_below")

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR,
                 min_value: float = DEFAULT_MIN_VALUE):
        if not 0.0 < relative_error < 1.0:
            raise ConfigurationError(
                f"relative_error must be in (0, 1), got {relative_error}")
        if min_value <= 0.0:
            raise ConfigurationError(
                f"min_value must be > 0, got {min_value}")
        self.relative_error = relative_error
        self.min_value = min_value
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self.total = 0.0
        self.zero_count = 0
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self._min = math.inf
        self._max = -math.inf
        # The watched tail (_watch): derived, never serialised; NaN = none.
        self._watched = math.nan
        self._tail = 0
        self._pos_from: float = math.inf
        self._neg_below: float = -math.inf

    # ------------------------------------------------------------------
    # Updates

    def _index(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def record(self, value: float, count: int = 1) -> None:
        """Absorb one observation (O(1): a log, a dict upsert); a
        non-finite one is refused before any field moves."""
        value = float(value)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        self.count += count
        self.total += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value > self.min_value:
            key = self._index(value)
            self._pos[key] = self._pos.get(key, 0) + count
            if key >= self._pos_from:
                self._tail += count
        elif value < -self.min_value:
            key = self._index(-value)
            self._neg[key] = self._neg.get(key, 0) + count
            if key < self._neg_below:
                self._tail += count
        else:
            self.zero_count += count
            if self._watched < 0.0:
                self._tail += count

    def merge(self, other: "LogHistogram") -> None:
        """Fold another sketch into this one (commutative, associative).

        Both sketches must share the same ``relative_error`` — merging
        across different bucket bases has no error bound.
        """
        if other.relative_error != self.relative_error:
            raise ConfigurationError(
                f"cannot merge sketches with different relative errors "
                f"({self.relative_error} vs {other.relative_error})")
        if not math.isnan(self._watched):
            self._tail += other.tail_count(self._watched)
        self.count += other.count
        self.total += other.total
        self.zero_count += other.zero_count
        for key, n in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + n
        for key, n in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    # Queries

    @property
    def min(self) -> float:
        """Smallest recorded value (exact); ``0.0`` when empty."""
        return 0.0 if self.count == 0 else self._min

    @property
    def max(self) -> float:
        """Largest recorded value (exact); ``0.0`` when empty."""
        return 0.0 if self.count == 0 else self._max

    @property
    def mean(self) -> float:
        """Exact running mean; ``0.0`` when empty."""
        return 0.0 if self.count == 0 else self.total / self.count

    def _bucket_value(self, index: int) -> float:
        # Midpoint of (gamma^(i-1), gamma^i] in the relative metric:
        # 2*gamma^i/(gamma+1) is within alpha of every value in the bucket.
        gamma = self._gamma
        try:
            midpoint = 2.0 * gamma ** index / (gamma + 1.0)
        except OverflowError:
            midpoint = math.inf
        if midpoint < math.inf:
            return midpoint
        # gamma^i or twice it is past the float range, as for the top
        # buckets of the finite floats: the midpoint, below gamma^i, is
        # taken in halves that stay within it (inf only if it is not).
        half = index // 2
        return 2.0 / (gamma + 1.0) * gamma ** half * gamma ** (index - half)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of everything recorded so far.

        Uses the lower-rank convention ``rank = floor(q * (count - 1))``
        (the same convention the property suite's reference uses), so the
        estimate is within ``relative_error`` of the true sample value at
        that rank whenever its magnitude is at least ``min_value``. The
        extremes are special-cased: ``q = 0.0`` and ``q = 1.0`` return
        the exact tracked min/max rather than a bucket midpoint — the
        sketch knows those two order statistics precisely, so there is
        no reason to pay the relative error on them.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = int(q * (self.count - 1))
        remaining = rank + 1
        # Walk negatives from most negative (largest magnitude) upward.
        for key in sorted(self._neg, reverse=True):
            remaining -= self._neg[key]
            if remaining <= 0:
                return -self._bucket_value(key)
        remaining -= self.zero_count
        if remaining <= 0:
            return 0.0
        for key in sorted(self._pos):
            remaining -= self._pos[key]
            if remaining <= 0:
                return self._bucket_value(key)
        return self.max  # pragma: no cover - counts always exhaust above

    def quantiles(self, qs: Iterable[float]) -> dict[str, float]:
        """Several quantiles keyed by their (stringified) ``q``."""
        return {f"{q:g}": self.quantile(q) for q in qs}

    def tail_count(self, threshold: float) -> int:
        """Observations recorded above ``threshold`` (bucket resolution).

        A bucket counts toward the tail when its midpoint exceeds the
        threshold — the same midpoint convention :meth:`quantile` uses,
        so the answer is exact up to values within ``relative_error`` of
        the threshold itself. O(distinct buckets), integer arithmetic
        only: two sketches' tail counts add without any float drift,
        which is what lets the quantile task substrate query its rotating
        sketch pair without materialising a merge. The watched threshold
        (:meth:`_watch`) is answered from its running counter.
        """
        threshold = float(threshold)
        if threshold == self._watched:
            return self._tail
        tail = 0
        for key, n in self._pos.items():
            if self._bucket_value(key) > threshold:
                tail += n
        if threshold < 0.0:
            # The zero bucket holds |v| <= min_value, reported as 0.0.
            tail += self.zero_count
            for key, n in self._neg.items():
                if -self._bucket_value(key) > threshold:
                    tail += n
        return tail

    def _watch(self, threshold: float,
               like: "LogHistogram | None" = None) -> None:
        """Keep ``tail_count(threshold)`` current inside :meth:`record`.

        ``record`` bins every value anyway, so whether its bucket lies
        above one fixed threshold is an integer compare: positive keys
        count from ``_pos_from`` up; under a negative threshold the zero
        bucket counts, and negative keys below ``_neg_below``. The
        cut-offs come from :meth:`_bucket_value` itself (midpoints grow
        with the index), so the counter is the walk's own float
        predicate; ``like``, a sketch of the same bucket base watching
        ``threshold`` already, lends its. One walk brings the counter
        up to date. A subclass whose ``record`` bypasses this class's
        starves the counter as it starves the buckets.
        """
        threshold = float(threshold)
        self._watched = math.nan  # so that the walk below walks
        self._tail = self.tail_count(threshold)
        if (like is not None and like._watched == threshold
                and like._gamma == self._gamma):
            self._pos_from, self._neg_below = like._pos_from, like._neg_below
        else:
            self._pos_from = (-math.inf if threshold <= 0.0
                              else self._first_index(threshold, False))
            self._neg_below = (self._first_index(-threshold, True)
                               if threshold < 0.0 else -math.inf)
        self._watched = threshold

    def _first_index(self, bound: float, inclusive: bool) -> float:
        """Smallest index whose midpoint is above ``bound`` > 0 (at or
        above it when ``inclusive``); ``inf`` only for an inf or NaN
        ``bound``. For a finite bound near the top of the float range
        the answer can be a bucket whose midpoint is past the range
        (inf), which no finite value lands in."""
        if not bound < math.inf:  # inf, or the NaN threshold
            return math.inf
        above = operator.ge if inclusive else operator.gt
        index = self._index(bound)  # within a bucket of the answer
        while above(self._bucket_value(index), bound):
            index -= 1
        while not above(self._bucket_value(index), bound):
            index += 1  # ends: the midpoint past the float range is inf
        return index

    # ------------------------------------------------------------------
    # Serialisation (wire snapshots, checkpoint-adjacent tooling)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form; :meth:`from_dict` rebuilds an equal sketch."""
        return {
            "relative_error": self.relative_error,
            "min_value": self.min_value,
            "count": self.count,
            "total": self.total,
            "zero_count": self.zero_count,
            "pos": {str(k): v for k, v in self._pos.items()},
            "neg": {str(k): v for k, v in self._neg.items()},
            "min": None if self.count == 0 else self._min,
            "max": None if self.count == 0 else self._max,
        }

    @classmethod
    def from_dict(cls, entry: dict[str, Any]) -> "LogHistogram":
        """Rebuild a sketch serialised by :meth:`to_dict`."""
        sketch = cls(relative_error=float(entry["relative_error"]),
                     min_value=float(entry["min_value"]))
        sketch.count = int(entry["count"])
        sketch.total = float(entry["total"])
        sketch.zero_count = int(entry["zero_count"])
        sketch._pos = {int(k): int(v) for k, v in entry["pos"].items()}
        sketch._neg = {int(k): int(v) for k, v in entry["neg"].items()}
        if entry.get("min") is not None:
            sketch._min = float(entry["min"])
        if entry.get("max") is not None:
            sketch._max = float(entry["max"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LogHistogram(count={self.count}, mean={self.mean:.4g}, "
                f"alpha={self.relative_error})")
