"""Online statistics over the inter-sample change ``delta`` (paper SIII-B).

The adaptation algorithm needs the mean and variance of the per-default-
interval change ``delta`` of the monitored value. The paper maintains both
with Knuth/Welford-style online updates so no history scan is required:

* ``mu_n   = mu_{n-1} + (x - mu_{n-1}) / n``
* ``var_n  = ((n-1) * var_{n-1} + (x - mu_n) * (x - mu_{n-1})) / n``

and *restarts* the statistics (``n = 0``) once ``n`` exceeds 1000 samples so
the estimates track the most recent distribution.

Faithfulness note: a literal restart throws away ``mu``/``sigma`` entirely,
which would leave the estimator with a degenerate ``sigma = 0`` for the next
couple of samples. :class:`OnlineStatistics` therefore keeps the pre-restart
values as a *stale estimate* that is served until ``min_fresh`` new samples
have accumulated; the restart semantics (``n`` reset, new data dominates) are
otherwise exactly the paper's.
"""

from __future__ import annotations

import math
from collections import deque

from repro.exceptions import ConfigurationError

__all__ = ["OnlineStatistics", "WindowedStatistics"]


class OnlineStatistics:
    """Welford online mean/variance with periodic restart.

    Args:
        restart_after: restart the accumulation once more than this many
            samples were absorbed (paper: 1000). ``None`` disables restarts.
        min_fresh: after a restart, keep serving the previous (stale)
            estimates until this many fresh samples arrived.

    The reported :attr:`variance` is the population variance, matching the
    paper's update rule (division by ``n``).
    """

    __slots__ = ("_restart_after", "_min_fresh", "_n", "_mean", "_var",
                 "_stale_mean", "_stale_var", "_stale_count", "_restarts",
                 "_total_count")

    def __init__(self, restart_after: int | None = 1000, min_fresh: int = 10):
        if restart_after is not None and restart_after < 2:
            raise ConfigurationError(
                f"restart_after must be >= 2 or None, got {restart_after}")
        if min_fresh < 1:
            raise ConfigurationError(f"min_fresh must be >= 1, got {min_fresh}")
        self._restart_after = restart_after
        self._min_fresh = min_fresh
        self._n = 0
        self._mean = 0.0
        self._var = 0.0
        self._stale_mean: float | None = None
        self._stale_var: float | None = None
        self._stale_count = 0
        self._restarts = 0
        self._total_count = 0

    def update(self, x: float) -> None:
        """Absorb one observation of ``delta``. A non-finite one raises
        :class:`ValueError` before anything is written; a finite one
        whose update overflows the variance restarts the statistics
        without it, so no stream leaves them non-finite."""
        if not math.isfinite(x):
            raise ValueError(f"non-finite observation: {x!r}")
        self._total_count += 1
        n = self._n + 1
        prev_mean = self._mean
        mean = prev_mean + (x - prev_mean) / n
        var = ((n - 1) * self._var + (x - mean) * (x - prev_mean)) / n
        if not math.isfinite(var):
            self._restart()
            return
        self._n, self._mean, self._var = n, mean, var
        if self._restart_after is not None and n > self._restart_after:
            self._restart()

    def _restart(self) -> None:
        """Restart accumulation, keeping current estimates as stale values."""
        self._stale_mean = self._mean
        self._stale_var = self._var
        self._stale_count = self._n
        self._n = 0
        self._mean = 0.0
        self._var = 0.0
        self._restarts += 1

    def reset(self) -> None:
        """Drop all state including stale estimates."""
        self._n = 0
        self._mean = 0.0
        self._var = 0.0
        self._stale_mean = None
        self._stale_var = None
        self._stale_count = 0
        self._total_count = 0

    def state_dict(self) -> dict[str, object]:
        """Return the mutable accumulator state as a JSON-able dict.

        Constructor parameters (``restart_after``, ``min_fresh``) are *not*
        included — a restoring caller rebuilds the object from its own
        configuration and then loads this state, so checkpoints stay valid
        across tuning changes.
        """
        return {
            "n": self._n,
            "mean": self._mean,
            "var": self._var,
            "stale_mean": self._stale_mean,
            "stale_var": self._stale_var,
            "stale_count": self._stale_count,
            "restarts": self._restarts,
            "total_count": self._total_count,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore accumulator state produced by :meth:`state_dict`."""
        self._n = int(state["n"])  # type: ignore[arg-type]
        self._mean = float(state["mean"])  # type: ignore[arg-type]
        self._var = float(state["var"])  # type: ignore[arg-type]
        stale_mean = state["stale_mean"]
        stale_var = state["stale_var"]
        self._stale_mean = None if stale_mean is None else float(stale_mean)  # type: ignore[arg-type]
        self._stale_var = None if stale_var is None else float(stale_var)  # type: ignore[arg-type]
        self._stale_count = int(state["stale_count"])  # type: ignore[arg-type]
        self._restarts = int(state["restarts"])  # type: ignore[arg-type]
        self._total_count = int(state["total_count"])  # type: ignore[arg-type]

    @property
    def count(self) -> int:
        """Samples absorbed since the last restart."""
        return self._n

    @property
    def total_count(self) -> int:
        """Samples absorbed over the object's lifetime (across restarts)."""
        return self._total_count

    @property
    def restarts(self) -> int:
        """Number of restarts performed so far."""
        return self._restarts

    @property
    def effective_count(self) -> int:
        """Count backing the currently served estimates.

        Right after a restart this is the stale accumulation's count, so
        consumers gating on "enough samples" keep working across restarts.
        """
        if self._serving_stale():
            return self._stale_count
        return self._n

    def _serving_stale(self) -> bool:
        return (self._stale_mean is not None
                and self._n < self._min_fresh)

    @property
    def mean(self) -> float:
        """Current mean estimate of ``delta``."""
        if self._serving_stale():
            assert self._stale_mean is not None
            return self._stale_mean
        return self._mean

    @property
    def variance(self) -> float:
        """Current population-variance estimate of ``delta``."""
        if self._serving_stale():
            assert self._stale_var is not None
            return self._stale_var
        # Guard against tiny negative values from floating-point cancellation.
        return max(self._var, 0.0)

    @property
    def std(self) -> float:
        """Current standard-deviation estimate of ``delta``."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OnlineStatistics(n={self._n}, mean={self.mean:.6g}, "
                f"std={self.std:.6g}, restarts={self._restarts})")


class WindowedStatistics:
    """Sliding-window mean/variance over the last ``window`` observations.

    An alternative estimator used by ablation benchmarks to contrast the
    paper's restart scheme with a plain rolling window. Maintains running
    sums; variance is the population variance of the window contents.
    """

    __slots__ = ("_window", "_buf", "_sum", "_sumsq")

    def __init__(self, window: int = 256):
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        self._window = window
        self._buf: deque[float] = deque()
        self._sum = 0.0
        self._sumsq = 0.0

    def update(self, x: float) -> None:
        """Absorb one observation, evicting the oldest when full."""
        if not math.isfinite(x):
            raise ValueError(f"non-finite observation: {x!r}")
        self._buf.append(x)
        self._sum += x
        self._sumsq += x * x
        if len(self._buf) > self._window:
            old = self._buf.popleft()
            self._sum -= old
            self._sumsq -= old * old

    def reset(self) -> None:
        """Drop all window contents."""
        self._buf.clear()
        self._sum = 0.0
        self._sumsq = 0.0

    @property
    def count(self) -> int:
        """Number of observations currently in the window."""
        return len(self._buf)

    # The alias lets WindowedStatistics plug into code written against
    # OnlineStatistics' gating interface.
    effective_count = count

    @property
    def mean(self) -> float:
        """Mean of the current window (0.0 when empty)."""
        n = len(self._buf)
        if n == 0:
            return 0.0
        return self._sum / n

    @property
    def variance(self) -> float:
        """Population variance of the current window (0.0 when empty)."""
        n = len(self._buf)
        if n == 0:
            return 0.0
        m = self._sum / n
        # Recompute from running sums; clamp fp cancellation noise.
        return max(self._sumsq / n - m * m, 0.0)

    @property
    def std(self) -> float:
        """Standard deviation of the current window."""
        return math.sqrt(self.variance)
