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

Both substrates are deterministic, JSON-serialisable via
``state_dict``/``from_state_dict`` (checkpoint contract: a restored
substrate answers every future query bit-identically), and cheap enough
for the push ingest path — updates are O(1) dict/deque work.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable

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

    def state_dict(self) -> dict[str, Any]:
        """JSON-able state; restoring reproduces every query bit-for-bit."""
        return {
            "quantile": self.quantile,
            "window": self.window,
            "relative_error": self.relative_error,
            "in_epoch": self._in_epoch,
            "current": self._current.to_dict(),
            "sealed": (None if self._sealed is None
                       else self._sealed.to_dict()),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "QuantileEstimator":
        est = cls(quantile=float(state["quantile"]),
                  window=int(state["window"]),
                  relative_error=float(state["relative_error"]))
        est._current = LogHistogram.from_dict(state["current"])
        if state.get("sealed") is not None:
            est._sealed = LogHistogram.from_dict(state["sealed"])
        est._in_epoch = int(state["in_epoch"])
        return est


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
    """

    __slots__ = ("window", "bin_width", "_symbols", "_counts")

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
        self._counts[symbol] = self._counts.get(symbol, 0) + 1
        if len(self._symbols) > self.window:
            old = self._symbols.popleft()
            left = self._counts[old] - 1
            if left:
                self._counts[old] = left
            else:
                del self._counts[old]

    def entropy(self) -> float:
        """Empirical entropy of the window in bits (0.0 when empty)."""
        n = len(self._symbols)
        if n == 0:
            return 0.0
        acc = 0.0
        for symbol in sorted(self._counts):
            c = self._counts[symbol]
            acc += c * math.log2(c)
        return math.log2(n) - acc / n

    def state_dict(self) -> dict[str, Any]:
        """JSON-able state; the count table is derived, so only the
        symbol sequence is serialised."""
        return {
            "window": self.window,
            "bin_width": self.bin_width,
            "symbols": list(self._symbols),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "EntropyEstimator":
        est = cls(window=int(state["window"]),
                  bin_width=float(state["bin_width"]))
        for symbol in state.get("symbols", []):
            est._symbols.append(int(symbol))
            est._counts[int(symbol)] = est._counts.get(int(symbol), 0) + 1
        return est
