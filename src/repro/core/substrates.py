"""State substrates for sketch-backed task types (quantile, entropy).

The paper's adaptation theory (SIII) is stated for a scalar monitored
statistic: the sampler watches delta statistics of the stream it is
given and bounds the chance that a skipped step hid a threshold
crossing. Production monitoring tasks, though, are dominated by
distributional predicates — "p99 latency > T" and "flow entropy
collapsed" — whose state is not a scalar but a *sketch*. This module
supplies the two substrates that close that gap:

* :class:`QuantileEstimator` — a rotating pair of mergeable
  :class:`~repro.telemetry.histogram.LogHistogram` sketches estimating
  ``p_q(X)`` over a sliding window of recent observations. Its
  sampler-facing statistic is the *exceedance rate* ``P(X > T)``: the
  predicate ``p_q(X) > T`` holds exactly when the exceedance rate is
  above ``1 - q``, so the indicator ``1{x > T}`` is a Bernoulli stream
  whose windowed rate feeds the existing Cantelli/Gaussian
  violation-likelihood kernels unchanged, with the sketch providing the
  threshold-crossing tail mass in O(buckets).
* :class:`EntropyEstimator` — windowed empirical entropy (bits) over
  binned observations, the drop-below statistic of the distributed
  entropy-monitoring literature (SYN floods of near-identical packets
  collapse source entropy far below its healthy band).

Both substrates are deterministic, serialised many at a time as
columns (``to_columns`` / ``from_columns``: the snapshot's ``sparse``
groups, DESIGN.md S31; a restored substrate answers every future query
bit-identically), and cheap enough for the push ingest path — updates
are O(1) dict/deque work.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import chain
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.soa import _array, _listed, _read, _read_only, _split
from repro.exceptions import ConfigurationError
from repro.telemetry.histogram import (DEFAULT_RELATIVE_ERROR,
                                       LogHistogram)

__all__ = ["EntropyEstimator", "QuantileEstimator", "TASK_PARAMS",
           "TASK_TYPES"]

TASK_TYPES = ("value", "quantile", "entropy")
"""Task types the service layer can register (``value`` = scalar)."""

TASK_PARAMS = {"value": ("window", "aggregate"),
               "quantile": ("quantile", "sketch_window", "relative_error"),
               "entropy": ("entropy_window", "bin_width")}
"""The parameter keys each task type takes beside the ones every task
has (name, threshold, allowance, intervals, direction)."""

DEFAULT_SKETCH_WINDOW = 128
"""Default observations per sketch epoch for quantile tasks."""

DEFAULT_ENTROPY_WINDOW = 64
"""Default sliding-window length for entropy tasks."""

# -- the column form (DESIGN.md S31 "snapshots are columns") ------------
#
# Many substrates of one kind are one map of columns, element ``i`` the
# ``i``-th substrate's: read-only ``f8`` / ``i8`` / ``b1`` arrays. A
# field of variable length (a sketch's buckets, an entropy ring) is CSR:
# a length column, one element per substrate, then flat columns holding
# every substrate's elements in turn. The flat symbol column stays the
# list of its ints when one is wider than 64 bits (the symbol of an
# extreme value over a fine bin), which the checkpoint writer keeps as
# JSON; a sketch's bucket index is within 64 bits for any relative
# error a sketch accepts. ``from_columns`` takes any column as an array
# or as a list.


def _ints(values: list[int]) -> Any:
    """A flat column of symbols: an ``i8`` array, or the list when one
    is wider than 64 bits."""
    try:
        return _array(values, int)
    except OverflowError:
        return values


def _sketch_columns(sketches: list[LogHistogram]) -> dict[str, Any]:
    """``LogHistogram`` s as columns: the scalar fields, and the
    ``pos`` / ``neg`` buckets as CSR (``*_length``, ``*_key``,
    ``*_count``). An empty sketch's ``min`` / ``max`` are written as
    zero (its count is their flag), not as the infinities it holds."""
    count = _array(_read(sketches, "count"), int)
    columns = {"count": count,
               "total": _array(_read(sketches, "total"), float),
               "zero_count": _array(_read(sketches, "zero_count"), int)}
    for key in ("min", "max"):
        extreme = np.array(_read(sketches, "_" + key), np.float64)
        columns[key] = _read_only(np.where(count > 0, extreme, 0.0))
    columns["min_value"] = _array(_read(sketches, "min_value"), float)
    columns["relative_error"] = _array(_read(sketches, "relative_error"),
                                       float)
    for side in ("pos", "neg"):
        buckets = _read(sketches, "_" + side)
        columns[f"{side}_length"] = _array(list(map(len, buckets)), int)
        columns[f"{side}_key"] = _array(list(chain.from_iterable(buckets)),
                                        int)
        columns[f"{side}_count"] = _array(list(chain.from_iterable(
            map(dict.values, buckets))), int)
    return columns


def _buckets(columns: dict[str, Any], side: str) -> list[dict[int, int]]:
    """Each sketch's ``side`` buckets, from their CSR columns."""
    lengths = columns[f"{side}_length"]
    keys, counts = (_split(lengths, columns[f"{side}_{part}"])
                    for part in ("key", "count"))
    return [dict(zip(*pair)) for pair in zip(keys, counts)]


def _sketches(columns: dict[str, Any]) -> list[LogHistogram]:
    """The inverse of :func:`_sketch_columns`."""
    sketches = []
    for (count, total, zero_count, low, high, min_value, relative_error,
         pos, neg) in zip(*(_listed(columns[key]) for key in (
             "count", "total", "zero_count", "min", "max", "min_value",
             "relative_error")), _buckets(columns, "pos"),
             _buckets(columns, "neg")):
        sketch = LogHistogram(relative_error=relative_error,
                              min_value=min_value)
        sketch.count, sketch.total = count, total
        sketch.zero_count, sketch._pos, sketch._neg = zero_count, pos, neg
        if count:
            sketch._min, sketch._max = low, high
        sketches.append(sketch)
    return sketches


class QuantileEstimator:
    """Sliding-window quantile/exceedance state over a rotating sketch pair.

    A single cumulative sketch converges and stops responding to regime
    changes, so recency comes from epoch rotation: observations land in
    ``_current``; every ``window`` updates the current sketch is sealed
    and a fresh one started. Queries always see ``sealed + current`` —
    between ``window`` and ``2 * window`` recent observations — which is
    O(1) amortised and, because :class:`LogHistogram` is a mergeable
    monoid over integer bucket counts, exactly reproducible from a
    checkpoint.

    Attributes:
        quantile: the tracked ``q`` in (0, 1).
        window: observations per epoch.
        relative_error: sketch accuracy ``alpha``.
        sketch_factory: constructor for new epoch sketches. A testkit
            seam — see :meth:`plant_sketch_factory` — not serialised;
            restored estimators always build plain ``LogHistogram``.
    """

    __slots__ = ("quantile", "window", "relative_error", "sketch_factory",
                 "_current", "_sealed", "_in_epoch")

    def __init__(self, quantile: float,
                 window: int = DEFAULT_SKETCH_WINDOW,
                 relative_error: float = DEFAULT_RELATIVE_ERROR,
                 sketch_factory: Callable[[], LogHistogram] | None = None):
        if not 0.0 < quantile < 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {quantile}")
        if window < 1:
            raise ConfigurationError(
                f"sketch window must be >= 1, got {window}")
        self.quantile = float(quantile)
        self.window = int(window)
        self.relative_error = float(relative_error)
        self.sketch_factory = sketch_factory or (
            lambda: LogHistogram(relative_error=self.relative_error))
        self._current = self.sketch_factory()
        self._sealed: LogHistogram | None = None
        self._in_epoch = 0

    @property
    def count(self) -> int:
        """Observations currently visible to queries."""
        sealed = 0 if self._sealed is None else self._sealed.count
        return self._current.count + sealed

    def update(self, value: float) -> None:
        """Absorb one observation; rotates epochs every ``window`` updates."""
        self._current.record(value)
        self._in_epoch += 1
        if self._in_epoch >= self.window:
            self._sealed = self._current
            self._start_epoch()

    def _start_epoch(self) -> None:
        """A fresh current sketch, watching what the last one watched."""
        last = self._current
        self._current = self.sketch_factory()
        self._in_epoch = 0
        if not math.isnan(last._watched):
            self._current._watch(last._watched, like=last)

    def exceedance(self, threshold: float) -> float:
        """Windowed ``P(X > threshold)`` — the sampler-facing statistic.

        Integer tail counts from both sketches are summed before a
        single division, so the result depends only on the sketch
        contents, never on update order or checkpoint boundaries. The
        first threshold asked for (a quantile task only asks for its
        own) is watched by both sketches from then on and across
        rotations (:meth:`LogHistogram._watch`): asking again reads two
        counters. Any other threshold walks the buckets.
        """
        total = self.count
        if total == 0:
            return 0.0
        current, sealed = self._current, self._sealed
        if math.isnan(current._watched):
            current._watch(threshold)
            if sealed is not None:
                sealed._watch(threshold, like=current)
        tail = current.tail_count(threshold)
        if sealed is not None:
            tail += sealed.tail_count(threshold)
        return tail / total

    def quantile_value(self) -> float:
        """Windowed estimate of the tracked quantile (alert annotation).

        :meth:`LogHistogram.quantile`'s rank walk over both sketches'
        bucket counts at once: the merged sketch's integer arithmetic
        and midpoints without building it. A task in violation is pinned
        at interval 1 and alerts on every due offer, which puts this on
        the per-offer path exactly when the service is busiest.
        """
        current, sealed = self._current, self._sealed
        if sealed is None:
            return current.quantile(self.quantile)
        count = sealed.count + current.count
        if count == 0:
            return 0.0
        remaining = int(self.quantile * (count - 1)) + 1
        ours, theirs = sealed._neg, current._neg
        for key in sorted(ours.keys() | theirs.keys(), reverse=True):
            remaining -= ours.get(key, 0) + theirs.get(key, 0)
            if remaining <= 0:
                return -sealed._bucket_value(key)
        remaining -= sealed.zero_count + current.zero_count
        if remaining <= 0:
            return 0.0
        ours, theirs = sealed._pos, current._pos
        for key in sorted(ours.keys() | theirs.keys()):
            remaining -= ours.get(key, 0) + theirs.get(key, 0)
            if remaining <= 0:
                return sealed._bucket_value(key)
        return max(sealed._max, current._max)

    def plant_sketch_factory(
            self, factory: Callable[[], LogHistogram]) -> None:
        """Testkit seam: swap the sketch constructor and reset the window.

        Used by the planted-mutant invariant check to run the full
        service path on a deliberately broken sketch (e.g. one that
        silently drops tail buckets) and prove the mis-detection
        invariant catches it.
        """
        self.sketch_factory = factory
        self._sealed = None
        self._start_epoch()

    @staticmethod
    def to_columns(estimators: Sequence["QuantileEstimator"],
                   ) -> dict[str, Any]:
        """Many estimators' state as columns (module comment above
        ``_ints``): ``quantile``, ``window``, ``relative_error``,
        ``in_epoch``, the ``current`` sketches, and the ``sealed`` ones
        of the estimators whose ``has_sealed`` flag is up. Restoring
        reproduces every query bit for bit."""
        sealed = [est._sealed for est in estimators
                  if est._sealed is not None]
        return {
            "quantile": _array(_read(estimators, "quantile"), float),
            "window": _array(_read(estimators, "window"), int),
            "relative_error": _array(_read(estimators, "relative_error"),
                                     float),
            "in_epoch": _array(_read(estimators, "_in_epoch"), int),
            "has_sealed": _array([est._sealed is not None
                                  for est in estimators], bool),
            "current": _sketch_columns(_read(estimators, "_current")),
            "sealed": _sketch_columns(sealed),
        }

    @classmethod
    def from_columns(cls, columns: dict[str, Any],
                     ) -> list["QuantileEstimator"]:
        """The estimators :meth:`to_columns` wrote, in order."""
        current = iter(_sketches(columns["current"]))
        sealed = iter(_sketches(columns["sealed"]))
        estimators = []
        for quantile, window, relative_error, in_epoch, has_sealed in zip(
                *(_listed(columns[key]) for key in (
                    "quantile", "window", "relative_error", "in_epoch",
                    "has_sealed"))):
            est = cls(quantile=quantile, window=window,
                      relative_error=relative_error)
            est._current = next(current)
            if has_sealed:
                est._sealed = next(sealed)
            est._in_epoch = in_epoch
            estimators.append(est)
        return estimators


_C_LOG2_C = [0.0]
"""``c * log2(c)`` at index ``c >= 1``, grown on demand: a pure
function's values, shared by every :class:`EntropyEstimator`."""


class EntropyEstimator:
    """Sliding-window empirical entropy (bits) over binned observations.

    Observations are symbolised as ``floor(value / bin_width)``; the
    window keeps the last ``window`` symbols in a deque with a count
    table, so updates are O(1) and the entropy query is O(distinct
    symbols) <= O(window). The estimate uses
    ``H = log2(n) - (1/n) * sum_i c_i * log2(c_i)`` accumulated in
    sorted-symbol order — a fixed summation order that makes the float
    result independent of insertion history, which the bit-identical
    restore contract requires.

    The count table is kept in that order (a dict's insertion order is
    ascending symbol), so a query walks it as it stands. An update stays
    O(1): a symbol new to the window above every held one is appended in
    order, one below the largest held is appended out of order and marks
    the table unsorted, and an evicted symbol leaves the order as it
    was. The next query re-sorts an unsorted table once, so no query
    sorts more than one sort per query would. Each ``c * log2(c)`` is
    read from one table shared by every estimator, the very float the
    product gives.
    """

    __slots__ = ("window", "bin_width", "_symbols", "_counts", "_unsorted")

    def __init__(self, window: int = DEFAULT_ENTROPY_WINDOW,
                 bin_width: float = 1.0):
        if window < 2:
            raise ConfigurationError(
                f"entropy window must be >= 2, got {window}")
        if not bin_width > 0.0:
            raise ConfigurationError(
                f"bin_width must be > 0, got {bin_width}")
        self.window = int(window)
        self.bin_width = float(bin_width)
        self._symbols: deque[int] = deque()
        self._counts: dict[int, int] = {}
        self._unsorted = False

    @property
    def count(self) -> int:
        """Observations currently in the window."""
        return len(self._symbols)

    def update(self, value: float) -> None:
        """Absorb one observation, evicting the oldest beyond the window;
        a non-finite one is refused before any field moves."""
        value = float(value)
        try:
            symbol = math.floor(value / self.bin_width)
        except (OverflowError, ValueError):  # floor of inf / of NaN
            raise ValueError(f"non-finite value: {value!r}") from None
        self._symbols.append(symbol)
        counts = self._counts
        held = counts.get(symbol)
        if held:
            counts[symbol] = held + 1
        else:
            if (not self._unsorted and counts
                    and symbol < next(reversed(counts))):
                self._unsorted = True  # below the largest held
            counts[symbol] = 1
        if len(self._symbols) > self.window:
            old = self._symbols.popleft()
            left = counts[old] - 1
            if left:
                counts[old] = left
            else:
                del counts[old]

    def entropy(self) -> float:
        """Empirical entropy of the window in bits (0.0 when empty)."""
        n = len(self._symbols)
        if n == 0:
            return 0.0
        if n >= len(_C_LOG2_C):  # no count exceeds n
            _C_LOG2_C.extend(c * math.log2(c)
                             for c in range(len(_C_LOG2_C), n + 1))
        counts = self._counts
        if self._unsorted:
            self._counts = counts = {s: counts[s] for s in sorted(counts)}
            self._unsorted = False
        acc = 0.0
        for c in counts.values():
            acc += _C_LOG2_C[c]
        return math.log2(n) - acc / n

    @staticmethod
    def to_columns(estimators: Sequence["EntropyEstimator"],
                   ) -> dict[str, Any]:
        """Many estimators' state as columns: ``window``, ``bin_width``
        and the symbol rings as CSR (``length``, ``symbols``). The count
        table is derived, so only the rings are written."""
        rings = _read(estimators, "_symbols")
        return {"window": _array(_read(estimators, "window"), int),
                "bin_width": _array(_read(estimators, "bin_width"), float),
                "length": _array(list(map(len, rings)), int),
                "symbols": _ints(list(chain.from_iterable(rings)))}

    @classmethod
    def from_columns(cls, columns: dict[str, Any],
                     ) -> list["EntropyEstimator"]:
        """The estimators :meth:`to_columns` wrote, in order."""
        estimators = []
        for window, bin_width, ring in zip(
                _listed(columns["window"]), _listed(columns["bin_width"]),
                _split(columns["length"], columns["symbols"])):
            est = cls(window=window, bin_width=bin_width)
            est._symbols.extend(ring)
            est._counts = dict(sorted(Counter(ring).items()))
            estimators.append(est)
        return estimators
