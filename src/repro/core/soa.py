"""Structure-of-arrays sampler engine (DESIGN.md S31).

:class:`SoaSamplerEngine` advances *many* tasks' violation-likelihood
samplers as column vectors per tick: a hosted shard's tasks, and the
offline sweeps' independent runs stepping in lockstep on one grid
(:func:`~repro.experiments.runner.run_lockstep`, the distributed-task
driver). A tick is a set of offers with at
most one offer per task; :meth:`run_columns` splits an arbitrary decoded
offer batch into such ticks (its strictly increasing runs of rows as they
stand when they are long, stable-sorted occurrence splitting otherwise)
so every task still sees its updates in arrival order.

A tick's cost is mostly fixed — numpy calls, not elements — so the tick
is written to make few of them: every column is gathered once and every
written column scattered once — through a slice, a view, when the tick's
rows are one contiguous run — the beta kernel covers all look-ahead
steps of all rows in one ``(steps, rows)`` pass, and a tick with fewer
due rows than ``_NARROW_TICK_ROWS`` skips the vector machinery and goes
row by row through :meth:`SoaSamplerEngine.observe_one`, the scalar
mirror the by-name path already uses.

The sampler sees one monitored scalar per task. For most rows that is
the offered value; for windowed, quantile and entropy tasks it is a
statistic the owning service derives from the value, and a disarmed
trigger guard floors the schedule. Neither is a reason to leave the
tick: ``run_columns`` calls back into the service for the marked rows
(``absorb`` on every occurrence, ``monitored`` on the due ones) and the
``floor`` column turns ``next_due = step + interval`` into
``step + max(interval, floor)``. An engine none of whose rows is marked
or floored is handed no call-back object and skips the floor gather.

Bit-equivalence contract
------------------------

Every row's state trajectory is bit-identical to driving a scalar
:class:`~repro.core.adaptation.ViolationLikelihoodSampler` through a
scalar service's :meth:`~repro.service.MonitoringService.offer` — the
reference statement of a step — with the same (value, step) stream: the
vectorised Welford / restart / stale-serving /
Cantelli / AIMD / coordination math performs the same floating-point
operations in the same order and association per element (numpy float64
arithmetic is IEEE-754 double, exactly CPython's float). Two operations
are *not* vectorised because their numpy kernels are not guaranteed
bit-identical to libm: ``log`` (coordination accumulator) and ``erfc``
(gaussian estimator) run element-wise through :mod:`math` over the — much
smaller — consumed subset. ``sqrt`` and the arithmetic primitives are
correctly rounded by IEEE and safe to vectorise.

A service is all rows or all scalar for life, so state never moves
between the two representations at run time; it crosses only inside a
snapshot, as the :data:`SAMPLER_STATE` columns
(:meth:`SoaSamplerEngine.rows_state` /
:meth:`SoaSamplerEngine.load_rows_state` on rows,
:func:`sampler_state_columns` / :func:`sampler_state_dict` for the scalar
sampler's ``state_dict``), so checkpoints, snapshot fingerprints and live
migration stay byte-compatible with scalar-only peers.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core import adaptation as _adaptation
from repro.core.adaptation import (_MIN_ERROR_NEEDED, AdaptationConfig,
                                   CoordinationStats)
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError

__all__ = ["SoaSamplerEngine", "ColumnBatchResult", "STEP_MIN", "STEP_MAX",
           "SAMPLER_STATE", "sampler_state_columns", "sampler_state_dict"]

# The steps an engine row accepts. The time columns are int64 and the
# engine computes `step - last_time` and `step + interval` in them, so
# only half the int64 range is admitted: any difference of two accepted
# steps, and any accepted step plus an interval, still fits. Every decode
# point refuses a step outside these bounds before it reaches a column.
STEP_MIN, STEP_MAX = -(1 << 62), (1 << 62) - 1

_SQRT2 = math.sqrt(2.0)  # the identical double to likelihood._SQRT2

# Stand-in for "restarts disabled": no real stream reaches 2**62 samples,
# so `n > limit` never fires (OnlineStatistics' `restart_after=None`).
_NO_RESTART = 2 ** 62

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)

# What advancing one tick returns: (rows, steps, monitored values, new
# intervals, flags, beta) of the accepted offers, and the rejected count.
_Tick = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
              np.ndarray, int]

# Ticks with fewer due rows than this are advanced row by row through
# observe_one instead of vectorised: a vectorised tick costs ~110 numpy
# calls whatever its width, observe_one costs per row. Sweep (us per tick,
# all rows due, quiet and hot streams alike, numpy 2.4 / CPython 3.11):
#   width        4    8   12   16   24   32   64
#   vectorised  82   83   88   87   93   96  106
#   row by row  34   59   85  104  152  194  370
# i.e. ~80 us fixed against ~6.2 us a row + 9: they cross between 12 and
# 13 rows. Keyed on tick width alone; deliberately not a setting.
_NARROW_TICK_ROWS = 13


def _columns_at(rows: np.ndarray) -> slice | np.ndarray:
    """The index a tick reaches its rows' columns through. Every tick
    ``run_columns`` builds has strictly increasing ``rows`` (non-empty),
    so when they span exactly ``len(rows)`` ids they are the contiguous
    run ``rows[0]..rows[-1]``, and the slice of it reads views and writes
    in place where ``rows`` would gather and scatter (at 1 024 rows a
    fancy gather is ~1.5 us against ~0.1 us for the view); else ``rows``.
    """
    n = len(rows)
    first = rows.item(0)
    if rows.item(n - 1) - first == n - 1:
        return slice(first, first + n)
    return rows


# A sampler's state as a snapshot holds it, one column per key: the
# scalar sampler's ``state_dict`` keys with its ``stats`` flattened in
# and ``None`` spelled as a flag -> (engine column, element type).
SAMPLER_STATE: dict[str, tuple[str, type]] = {
    "interval": ("interval", int),
    "streak": ("streak", int),
    "has_last": ("has_last", bool),
    "last_value": ("last_value", float),
    "last_time": ("last_time", int),
    "error_allowance": ("err", float),
    "observations": ("observations", int),
    "grow_events": ("grow_events", int),
    "reset_events": ("reset_events", int),
    "coord_sum_r": ("coord_sum_r", float),
    "coord_sum_log_e": ("coord_sum_log_e", float),
    "coord_n": ("coord_n", int),
    "n": ("stat_n", int),
    "mean": ("mean", float),
    "var": ("var", float),
    "has_stale": ("has_stale", bool),
    "stale_mean": ("stale_mean", float),
    "stale_var": ("stale_var", float),
    "stale_count": ("stale_count", int),
    "restarts": ("restarts", int),
    "total_count": ("total_count", int),
}
# flag -> the keys that are None in a state_dict while it is down.
_FLAGGED = {"has_last": ("last_value", "last_time"),
            "has_stale": ("stale_mean", "stale_var")}
_STATS_KEYS = ("n", "mean", "var", "stale_mean", "stale_var", "stale_count",
               "restarts", "total_count")


def sampler_state_columns(states: list[dict[str, Any]],
                          ) -> dict[str, list[Any]]:
    """Scalar sampler ``state_dict`` s as :data:`SAMPLER_STATE` columns —
    what :meth:`SoaSamplerEngine.rows_state` reads off rows holding the
    same state, element for element."""
    flat = [{**state, **state["stats"]} for state in states]
    columns = {key: [state.get(key) for state in flat]
               for key in SAMPLER_STATE}
    for flag, keys in _FLAGGED.items():
        columns[flag] = [value is not None for value in columns[keys[0]]]
        for key in keys:
            zero = SAMPLER_STATE[key][1]()
            columns[key] = [zero if value is None else value
                            for value in columns[key]]
    return columns


def sampler_state_dict(columns: dict[str, list[Any]],
                       at: int) -> dict[str, Any]:
    """Element ``at`` of :data:`SAMPLER_STATE` columns as the scalar
    sampler ``state_dict`` (the inverse of :func:`sampler_state_columns`)."""
    state = {key: columns[key][at] for key in SAMPLER_STATE}
    for flag, keys in _FLAGGED.items():
        if not state.pop(flag):
            state.update(dict.fromkeys(keys))
    state["stats"] = {key: state.pop(key) for key in _STATS_KEYS}
    return state


class ColumnBatchResult:
    """Outcome of one :meth:`SoaSamplerEngine.run_columns` call.

    ``fallback`` holds positions (into the input arrays) whose rows are
    negative or not ``active`` — the caller steps those by name, which is
    always correct. The ``event_*`` arrays carry
    the rare alert/trace-worthy offers (flags: 1 grew, 2 reset, 4
    violation) for the service to materialise, in tick order — so each
    task's in its arrival order; ``viol_*`` is their violating subset,
    for a caller that only alerts. The defaults are class attributes —
    shared, and empty, so nothing can be written through them — which
    makes a result free to create on the per-batch path.
    """

    applied = 0
    consumed = 0
    rejected = 0
    consumed_intervals = _EMPTY_I8
    fallback = _EMPTY_I8
    viol_rows = _EMPTY_I8
    viol_steps = _EMPTY_I8
    viol_values = _EMPTY_F8
    event_rows = _EMPTY_I8
    event_steps = _EMPTY_I8
    event_values = _EMPTY_F8
    event_intervals = _EMPTY_I8
    event_flags = _EMPTY_I8
    event_betas = _EMPTY_F8

    @classmethod
    def of_one(cls, row: int, step: int, value: float, interval: int,
               flags: int, beta: float) -> "ColumnBatchResult":
        """The ``event_*`` / ``viol_*`` columns of one flagged offer
        stepped outside a batch (``flags`` non-zero)."""
        result = cls()
        result.event_rows = np.array([row], dtype=np.int64)
        result.event_steps = np.array([step], dtype=np.int64)
        result.event_values = np.array([value], dtype=np.float64)
        result.event_intervals = np.array([interval], dtype=np.int64)
        result.event_flags = np.array([flags], dtype=np.int64)
        result.event_betas = np.array([beta], dtype=np.float64)
        if flags & 4:
            result.viol_rows = result.event_rows
            result.viol_steps = result.event_steps
            result.viol_values = result.event_values
        return result


class SoaSamplerEngine:
    """Columnar storage + vectorised stepping for many samplers.

    Rows are allocated by :meth:`add_task` and never reused: a removed
    task's row is deactivated, so stale row references held by
    long-lived connections degrade to an explicit fallback instead of
    silently hitting another task's state. An inactive row is a retired
    row: ``active`` goes up at allocation and down in :meth:`deactivate`.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}")
        self._rows = 0
        self.derived_rows = 0
        """Active rows marked ``derived``: zero means :meth:`run_columns`
        needs no call-back object."""
        self._floored = 0  # rows whose floor is above 1
        self._alloc(capacity)

    def _alloc(self, capacity: int) -> None:
        i8 = lambda: np.zeros(capacity, dtype=np.int64)  # noqa: E731
        f8 = lambda: np.zeros(capacity, dtype=np.float64)  # noqa: E731
        b1 = lambda: np.zeros(capacity, dtype=bool)  # noqa: E731
        # Per-row invariants (from TaskSpec / AdaptationConfig).
        self.sign = f8()
        self.threshold = f8()          # oriented (upper-frame) threshold
        # What the row's alerts report as their threshold: the raw spec
        # threshold, unless the owner writes the row another frame's (a
        # quantile task alerts against its value-frame ``T``).
        self.alert_threshold = f8()
        self.err = f8()                # error allowance (coordinator-tunable)
        self.max_interval = i8()
        self.patience = i8()
        self.min_samples = i8()
        self.one_minus_slack = f8()
        self.use_cheb = b1()
        self.restart_limit = i8()
        self.min_fresh = i8()
        # Sampler mutable state (ViolationLikelihoodSampler slots).
        self.interval = i8()
        self.streak = i8()
        self.last_value = f8()
        self.has_last = b1()
        self.last_time = i8()
        self.observations = i8()
        self.grow_events = i8()
        self.reset_events = i8()
        self.coord_sum_r = f8()
        self.coord_sum_log_e = f8()
        self.coord_n = i8()
        self.last_beta = f8()
        self.last_flags = i8()
        # OnlineStatistics mutable state.
        self.stat_n = i8()
        self.mean = f8()
        self.var = f8()
        self.stale_mean = f8()
        self.stale_var = f8()
        self.has_stale = b1()
        self.stale_count = i8()
        self.restarts = i8()
        self.total_count = i8()
        # Service-level schedule state (MonitoringService.TaskState).
        self.next_due = i8()
        self.samples_taken = i8()
        self.alerts = i8()             # alerts raised, counted by the owner
        self.active = b1()
        # Rows whose tick is more than (value, step) -> sampler, set by
        # the owning service (mark_row / set_floor). absorbs: a substrate
        # takes every offered value, due or not. derived: the sampler
        # sees a statistic the service computes from the value when the
        # row is due (window aggregate, exceedance, entropy). watched: a
        # trigger watcher reads the row's offered values (the service
        # scans these before a batch; the tick itself ignores the mark).
        # floor: least advance to the next due step — a disarmed guard's
        # suspend interval, else 1; suspensions counts the consumed
        # offers the floor deferred.
        self.absorbs = b1()
        self.derived = b1()
        self.watched = b1()
        self.floor = i8()
        self.suspensions = i8()

    _COLUMNS = (
        "sign", "threshold", "alert_threshold", "err", "max_interval",
        "patience", "min_samples", "one_minus_slack", "use_cheb",
        "restart_limit", "min_fresh", "interval", "streak", "last_value",
        "has_last", "last_time", "observations", "grow_events",
        "reset_events", "coord_sum_r", "coord_sum_log_e", "coord_n",
        "last_beta", "last_flags", "stat_n", "mean", "var", "stale_mean",
        "stale_var", "has_stale", "stale_count", "restarts", "total_count",
        "next_due", "samples_taken", "alerts", "active", "absorbs",
        "derived", "watched", "floor", "suspensions")

    def __len__(self) -> int:
        return self._rows

    def _grow(self) -> None:
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.zeros(len(old) * 2, dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # Row lifecycle

    def add_task(self, task: TaskSpec,
                 config: AdaptationConfig | None = None) -> int:
        """Allocate a row for ``task`` in its scalar-fresh initial state."""
        config = config or AdaptationConfig()
        if self._rows == len(self.sign):
            self._grow()
        row = self._rows
        self._rows += 1
        sign, threshold = task.oriented()
        self.sign[row] = sign
        self.threshold[row] = threshold
        self.alert_threshold[row] = task.threshold
        self.err[row] = task.error_allowance
        self.max_interval[row] = task.max_interval
        self.patience[row] = config.patience
        self.min_samples[row] = config.min_samples
        self.one_minus_slack[row] = 1.0 - config.slack_ratio
        self.use_cheb[row] = config.estimator == "chebyshev"
        self.restart_limit[row] = (_NO_RESTART if config.stats_restart
                                   is None else config.stats_restart)
        self.min_fresh[row] = config.min_samples
        self._freshen(row)
        return row

    def _freshen(self, at: int | slice) -> None:
        """The mutable state of newly allocated rows, scalar-fresh."""
        self.interval[at] = 1
        self.streak[at] = 0
        self.has_last[at] = False
        self.last_beta[at] = 1.0
        self.last_flags[at] = 0
        self.next_due[at] = 0
        self.samples_taken[at] = 0
        self.alerts[at] = 0
        self.floor[at] = 1
        self.active[at] = True

    def add_tasks(self, tasks: Sequence[TaskSpec],
                  configs: Sequence[AdaptationConfig]) -> range:
        """:meth:`add_task` for many tasks at once (a restore): the rows,
        in order — each column stored once for all of them."""
        rows = range(self._rows, self._rows + len(tasks))
        while rows.stop > len(self.sign):
            self._grow()
        self._rows = rows.stop
        at = slice(rows.start, rows.stop)
        oriented = [task.oriented() for task in tasks]
        self.sign[at] = [sign for sign, _ in oriented]
        self.threshold[at] = [threshold for _, threshold in oriented]
        self.alert_threshold[at] = [task.threshold for task in tasks]
        self.err[at] = [task.error_allowance for task in tasks]
        self.max_interval[at] = [task.max_interval for task in tasks]
        self.patience[at] = [config.patience for config in configs]
        self.min_samples[at] = self.min_fresh[at] = [
            config.min_samples for config in configs]
        self.one_minus_slack[at] = [1.0 - config.slack_ratio
                                    for config in configs]
        self.use_cheb[at] = [config.estimator == "chebyshev"
                             for config in configs]
        self.restart_limit[at] = [
            _NO_RESTART if config.stats_restart is None
            else config.stats_restart for config in configs]
        self._freshen(at)
        return rows

    def deactivate(self, row: int) -> None:
        """Retire a row; offers routed to it fall back / reject."""
        self.mark_row(row)
        self.set_floor(row, 1)
        self.active[row] = False

    def mark_row(self, row: int, absorbs: bool = False,
                 derived: bool = False, watched: bool = False) -> None:
        """Set the row's ``absorbs`` / ``derived`` / ``watched`` marks."""
        self.derived_rows += derived - bool(self.derived[row])
        self.absorbs[row] = absorbs
        self.derived[row] = derived
        self.watched[row] = watched

    def set_floor(self, row: int, floor: int) -> None:
        """Set the least advance from a consumed offer to the row's next
        due step (1 = the sampler's interval alone decides)."""
        self._floored += (floor > 1) - bool(self.floor[row] > 1)
        self.floor[row] = floor

    def resume_full_rate(self, row: int) -> None:
        """:meth:`ViolationLikelihoodSampler.resume_full_rate` on a row,
        and due at the very next offer (a guard's arm edge)."""
        self.interval[row] = 1
        self.streak[row] = 0
        self.next_due[row] = 0

    def advance_one(self, row: int, step: int, interval: int) -> None:
        """Schedule the row after a consumed offer at ``step`` that left
        the sampler at ``interval`` (the row-at-a-time twin of the tail
        of :meth:`_observe_tick`)."""
        advance = interval if interval > 1 else 1
        if self._floored and self.floor[row] > advance:
            advance = int(self.floor[row])
            self.suspensions[row] += 1
        self.next_due[row] = step + advance
        self.samples_taken[row] += 1

    def drain_coordination(self, rows: np.ndarray | slice,
                           ) -> list[CoordinationStats | None]:
        """:meth:`ViolationLikelihoodSampler.drain_coordination_stats` for
        ``rows``, float for float: one report per row (``None`` for a row
        that observed nothing since its last drain), then every row's
        accumulators zeroed. ``exp`` runs through :mod:`math`, as there."""
        counts = self.coord_n[rows].tolist()
        sums_r = self.coord_sum_r[rows].tolist()
        sums_log_e = self.coord_sum_log_e[rows].tolist()
        self.coord_n[rows] = 0
        self.coord_sum_r[rows] = 0.0
        self.coord_sum_log_e[rows] = 0.0
        return [None if n == 0 else CoordinationStats(
                    avg_cost_reduction=sum_r / n,
                    avg_error_needed=math.exp(sum_log_e / n),
                    observations=n)
                for n, sum_r, sum_log_e in zip(counts, sums_r, sums_log_e)]

    # ------------------------------------------------------------------
    # Sampler state as snapshot columns (DESIGN.md S31 "snapshots are
    # columns")

    def rows_state(self, rows: np.ndarray) -> dict[str, list[Any]]:
        """The sampler state of ``rows`` as a snapshot holds it: one
        list per :data:`SAMPLER_STATE` key, each column gathered once.

        An absent ``last_value`` / ``last_time`` / ``stale_mean`` /
        ``stale_var`` is its flag column false and the value written as
        zero, whatever the row holds there — what a fingerprint sees is
        the state, not the row's history. Every element is a plain
        Python type.
        """
        state = {key: getattr(self, column)[rows]
                 for key, (column, _) in SAMPLER_STATE.items()}
        for flag, keys in _FLAGGED.items():
            for key in keys:
                state[key] = np.where(state[flag], state[key], 0)
        return {key: column.tolist() for key, column in state.items()}

    def load_rows_state(self, rows: np.ndarray,
                        state: dict[str, list[Any]]) -> None:
        """Load :meth:`rows_state` columns into ``rows``, one scatter
        per column."""
        err = np.asarray(state["error_allowance"], dtype=np.float64)
        if not ((err >= 0.0) & (err <= 1.0)).all():
            raise ConfigurationError(
                "error allowance must be in [0, 1] on every row")
        for key, (column, _) in SAMPLER_STATE.items():
            getattr(self, column)[rows] = state[key]

    def row_state_dict(self, row: int) -> dict[str, Any]:
        """One row's sampler state in the exact scalar ``state_dict``
        shape — the diagnostic view of :meth:`rows_state`."""
        return sampler_state_dict(
            self.rows_state(np.asarray([row], dtype=np.int64)), 0)

    # ------------------------------------------------------------------
    # Scalar drive surface (by-name offers and narrow ticks)

    def observe_one(self, row: int, value: float, step: int) -> int:
        """Advance one row by one offer; returns the next interval.

        The exact scalar-math mirror of
        :meth:`ViolationLikelihoodSampler.observe` operating on column
        storage — by-name offers (``MonitoringService.offer`` on an
        engine service) and columnar batches may interleave freely on
        the same task: both write the one row.
        """
        v = float(self.sign[row]) * value
        threshold = float(self.threshold[row])
        flags = 4 if v > threshold else 0

        if self.has_last[row]:
            steps = step - int(self.last_time[row])
            if steps <= 0:
                raise ValueError(
                    f"time_index must increase: {step} after "
                    f"{int(self.last_time[row])}")
            x = (v - float(self.last_value[row])) / steps
            if not math.isfinite(x):
                raise ValueError(f"non-finite observation: {x!r}")
            n_acc = int(self.stat_n[row]) + 1
            self.total_count[row] += 1
            prev_mean = float(self.mean[row])
            mean_acc = prev_mean + (x - prev_mean) / n_acc
            var_acc = ((n_acc - 1) * float(self.var[row])
                       + (x - mean_acc) * (x - prev_mean)) / n_acc
            if n_acc > int(self.restart_limit[row]):
                self.stale_mean[row] = mean_acc
                self.stale_var[row] = var_acc
                self.stale_count[row] = n_acc
                self.has_stale[row] = True
                self.restarts[row] += 1
                n_acc = 0
                mean_acc = 0.0
                var_acc = 0.0
            self.stat_n[row] = n_acc
            self.mean[row] = mean_acc
            self.var[row] = var_acc
        self.observations[row] += 1
        self.last_value[row] = v
        self.last_time[row] = step
        self.has_last[row] = True

        n_acc = int(self.stat_n[row])
        if self.has_stale[row] and n_acc < int(self.min_fresh[row]):
            eff = int(self.stale_count[row])
            mean_est = float(self.stale_mean[row])
            var_est = float(self.stale_var[row])
        else:
            eff = n_acc
            mean_est = float(self.mean[row])
            var_est = max(float(self.var[row]), 0.0)

        interval = int(self.interval[row])
        if eff >= int(self.min_samples[row]):
            std_est = math.sqrt(var_est)
            gap0 = threshold - v
            if std_est == 0.0:
                worst = interval if mean_est >= 0.0 else 1
                beta = 0.0 if gap0 - worst * mean_est > 0.0 else 1.0
            elif self.use_cheb[row]:
                survive = 1.0
                for i in range(1, interval + 1):
                    gap = gap0 - i * mean_est
                    if gap <= 0.0:
                        beta = 1.0
                        break
                    k = gap / (i * std_est)
                    survive *= 1.0 - 1.0 / (1.0 + k * k)
                else:
                    beta = 1.0 - survive
            else:
                survive = 1.0
                for i in range(1, interval + 1):
                    p = 0.5 * math.erfc(
                        (gap0 - i * mean_est) / (i * std_est) / _SQRT2)
                    if p >= 1.0:
                        beta = 1.0
                        break
                    survive *= 1.0 - p
                else:
                    beta = 1.0 - survive
        else:
            beta = 1.0

        err = float(self.err[row])
        one_minus_slack = float(self.one_minus_slack[row])
        streak = int(self.streak[row])
        if err <= 0.0:
            if interval != 1:
                interval = 1
                flags |= 2
            streak = 0
        elif beta > err:
            if interval != 1:
                flags |= 2
                interval = 1
                self.reset_events[row] += 1
            streak = 0
        elif beta <= one_minus_slack * err:
            streak += 1
            if streak >= int(self.patience[row]):
                streak = 0
                if interval < int(self.max_interval[row]):
                    interval += 1
                    flags |= 1
                    self.grow_events[row] += 1
        else:
            streak = 0

        if interval < int(self.max_interval[row]):
            self.coord_sum_r[row] += (1.0 / interval
                                      - 1.0 / (interval + 1.0))
        self.coord_sum_log_e[row] += math.log(
            max(beta / one_minus_slack, _MIN_ERROR_NEEDED))
        self.coord_n[row] += 1

        self.interval[row] = interval
        self.streak[row] = streak
        self.last_beta[row] = beta
        self.last_flags[row] = flags

        metrics = _adaptation._SAMPLER_METRICS
        if metrics.enabled:
            metrics.observations += 1
            if flags:
                if flags & 1:
                    metrics.grow_events += 1
                if flags & 2:
                    metrics.reset_events += 1
                if flags & 4:
                    metrics.violations += 1
        return interval

    # ------------------------------------------------------------------
    # Vectorised drive surface

    def run_columns(self, rows: np.ndarray, steps: np.ndarray,
                    values: np.ndarray, hooks: Any = None,
                    ) -> ColumnBatchResult:
        """Apply a decoded offer batch (may repeat rows) to the columns.

        Splits the batch into ticks — one occurrence per row, in arrival
        order — and advances each tick, vectorised or (narrow ticks) row
        by row. Rows that are negative (unresolved) or not ``active``
        (retired) are reported back as ``fallback`` positions instead of
        being applied; a non-finite value on an active row is rejected
        here, before any column of the row sees it.

        ``hooks`` is the owner of what the marked rows keep outside the
        columns, called back per tick: ``hooks.absorb(rows, values)``
        for the tick's ``absorbs`` rows, before the due check, and
        ``hooks.monitored(rows, steps, values)`` for its due ``derived``
        rows, whose return (one statistic per row) replaces their values
        for the rest of the tick — the sampler step, ``viol_values``.
        Without ``hooks`` every row's monitored scalar is its value.
        """
        result = ColumnBatchResult()
        if len(rows) == 0:
            return result
        act = self.active[rows] & (rows >= 0)
        usable = act & np.isfinite(values)
        if np.count_nonzero(usable) < len(rows):
            result.fallback = np.flatnonzero(~act)
            keep = np.flatnonzero(usable)
            result.rejected = len(rows) - len(keep) - len(result.fallback)
            rows = rows[keep]
            steps = steps[keep]
            values = values[keep]
            if len(rows) == 0:
                return result

        # A strictly increasing run repeats no row, so it is a tick as it
        # stands, and runs taken in order keep each row's offers in
        # arrival order: one run (a per-node agent's frame) or a few long
        # ones (a step-major frame) tick as slices, unsorted.
        descents = rows[1:] <= rows[:-1]
        runs = int(np.count_nonzero(descents)) + 1
        if runs == 1:
            ticks: list[Any] = [slice(None)]
        elif len(rows) >= runs * _NARROW_TICK_ROWS:
            bounds = [0, *(np.flatnonzero(descents) + 1).tolist(), len(rows)]
            ticks = list(map(slice, bounds, bounds[1:]))
        else:
            # Occurrence splitting: a stable sort groups equal rows while
            # preserving their arrival order, so occurrence k of every row
            # can be processed in tick k: short runs regroup into wide ticks.
            order = np.argsort(rows, kind="stable")
            sorted_rows = rows[order]
            new_group = np.empty(len(sorted_rows), dtype=bool)
            new_group[0] = True
            np.not_equal(sorted_rows[1:], sorted_rows[:-1],
                         out=new_group[1:])
            group_starts = np.flatnonzero(new_group)
            if len(group_starts) == len(rows):
                ticks = [order]
            else:
                group_ids = np.cumsum(new_group) - 1
                occurrence = (np.arange(len(sorted_rows))
                              - group_starts[group_ids])
                ticks = [order[occurrence == k]
                         for k in range(int(occurrence.max()) + 1)]

        events: list[tuple[np.ndarray, ...]] = []
        intervals: list[np.ndarray] = []
        for sel in ticks:
            tick_rows = rows[sel]
            tick_steps = steps[sel]
            tick_values = values[sel]
            at = _columns_at(tick_rows)
            if hooks is not None:
                marked = np.flatnonzero(self.absorbs[at])
                if len(marked):
                    hooks.absorb(tick_rows[marked], tick_values[marked])
            due = tick_steps >= self.next_due[at]
            n_due = int(np.count_nonzero(due))
            result.applied += len(tick_rows) - n_due
            if n_due == 0:
                continue
            if n_due < len(tick_rows):
                d = np.flatnonzero(due)
                tick_rows = at = tick_rows[d]
                tick_steps = tick_steps[d]
                tick_values = tick_values[d]
            if hooks is not None:
                marked = np.flatnonzero(self.derived[at])
                if len(marked):
                    tick_values = tick_values.copy()
                    tick_values[marked] = hooks.monitored(
                        tick_rows[marked], tick_steps[marked],
                        tick_values[marked])
            advance = (self._observe_narrow if n_due < _NARROW_TICK_ROWS
                       else self._observe_tick)
            (ok_rows, ok_steps, ok_values, iv_new, flags, beta,
             n_rejected) = advance(tick_rows, tick_values, tick_steps)
            result.rejected += n_rejected
            result.applied += len(ok_rows)
            result.consumed += len(ok_rows)
            if len(ok_rows) == 0:
                continue
            intervals.append(iv_new)
            if np.count_nonzero(flags):
                events.append((ok_rows, ok_steps, ok_values, iv_new, flags,
                               beta))

        if intervals:
            result.consumed_intervals = (intervals[0] if len(intervals) == 1
                                         else np.concatenate(intervals))
        if events:
            (ev_rows, ev_steps, ev_values, ev_iv, ev_flags, ev_beta) = (
                cols[0] if len(cols) == 1 else np.concatenate(cols)
                for cols in zip(*events))
            flagged = np.flatnonzero(ev_flags)
            result.event_rows = ev_rows[flagged]
            result.event_steps = ev_steps[flagged]
            result.event_values = ev_values[flagged]
            result.event_intervals = ev_iv[flagged]
            result.event_flags = flags = ev_flags[flagged]
            result.event_betas = ev_beta[flagged]
            viol = np.flatnonzero(flags & 4)
            result.viol_rows = result.event_rows[viol]
            result.viol_steps = result.event_steps[viol]
            result.viol_values = result.event_values[viol]
        return result

    def _observe_narrow(self, rows: np.ndarray, values: np.ndarray,
                        steps: np.ndarray) -> _Tick:
        """:meth:`_observe_tick` for a tick too narrow to amortise it.

        Advances the rows one by one through :meth:`observe_one` and
        returns the same tuple, so everything downstream of a tick is one
        code path whichever way the tick was advanced.
        """
        observe_one = self.observe_one
        advance_one = self.advance_one
        ok: list[int] = []
        iv_new: list[int] = []
        for pos, (row, value, step) in enumerate(zip(
                rows.tolist(), values.tolist(), steps.tolist())):
            try:
                interval = observe_one(row, value, step)
            except ValueError:
                continue
            advance_one(row, step, interval)
            ok.append(pos)
            iv_new.append(interval)
        rejected = len(rows) - len(ok)
        if rejected:
            keep = np.asarray(ok, dtype=np.int64)
            rows = rows[keep]
            steps = steps[keep]
            values = values[keep]
        return (rows, steps, values, np.asarray(iv_new, dtype=np.int64),
                self.last_flags[rows], self.last_beta[rows], rejected)

    def _observe_tick(self, rows: np.ndarray, values: np.ndarray,
                      steps: np.ndarray) -> _Tick:
        """Advance unique ``rows`` by one offer each (all due and active).

        Returns ``(rows, steps, values, new_intervals, flags, beta,
        rejected)`` for the accepted subset. Matches the scalar error
        contract: a non-increasing step or non-finite delta rejects only
        that row's offer and leaves every column of the row — the
        observation counter included — untouched.

        Every column is gathered once, the math runs on the gathered
        vectors, and every written column is scattered once at the
        bottom (the rare restart branch scatters its own stale columns).
        The columns are reached through ``at`` (:func:`_columns_at`):
        where that is a slice a read is a view of its column, so nothing
        read from a column is read again after the write to it.
        """
        at = _columns_at(rows)
        v = self.sign[at] * values
        threshold = self.threshold[at]
        has = self.has_last[at]
        with np.errstate(all="ignore"):
            dt = steps - self.last_time[at]
            x = (v - self.last_value[at]) / dt
            bad = has & ((dt <= 0) | ~np.isfinite(x))
            rejected = int(np.count_nonzero(bad))
            if rejected:
                ok = np.flatnonzero(~bad)
                rows = at = rows[ok]
                steps = steps[ok]
                values = values[ok]
                v = v[ok]
                threshold = threshold[ok]
                has = has[ok]
                x = x[ok]
                if len(rows) == 0:
                    return (rows, steps, values, _EMPTY_I8, _EMPTY_I8,
                            _EMPTY_F8, rejected)
            n = len(rows)
            all_has = np.count_nonzero(has) == n

            # Welford update with restart (OnlineStatistics.update); rows
            # on their first-ever offer have no delta and keep their stats.
            stat_n = self.stat_n[at]
            prev_mean = self.mean[at]
            n_acc = stat_n + 1
            mean_acc = prev_mean + (x - prev_mean) / n_acc
            var_acc = (stat_n * self.var[at]
                       + (x - mean_acc) * (x - prev_mean)) / n_acc
            restart = n_acc > self.restart_limit[at]
            if not all_has:
                restart &= has
                n_acc = np.where(has, n_acc, stat_n)
                mean_acc = np.where(has, mean_acc, prev_mean)
                var_acc = np.where(has, var_acc, self.var[at])
            if np.count_nonzero(restart):
                rr = rows[restart]
                self.stale_mean[rr] = mean_acc[restart]
                self.stale_var[rr] = var_acc[restart]
                self.stale_count[rr] = n_acc[restart]
                self.has_stale[rr] = True
                self.restarts[rr] += 1
                n_acc = np.where(restart, 0, n_acc)
                mean_acc = np.where(restart, 0.0, mean_acc)
                var_acc = np.where(restart, 0.0, var_acc)

            # Stale serving (OnlineStatistics mean/variance/effective_count).
            serving = self.has_stale[at] & (n_acc < self.min_fresh[at])
            eff = n_acc
            mean_est = mean_acc
            var_est = np.maximum(var_acc, 0.0)
            if np.count_nonzero(serving):
                eff = np.where(serving, self.stale_count[at], eff)
                mean_est = np.where(serving, self.stale_mean[at], mean_est)
                var_est = np.where(serving, self.stale_var[at], var_est)

            interval = self.interval[at]
            use_cheb = self.use_cheb[at]
            trusted = eff >= self.min_samples[at]
            n_trusted = np.count_nonzero(trusted)
            if n_trusted == n:
                beta = self._kernel(threshold - v, mean_est, var_est,
                                    interval, use_cheb)
            else:
                beta = np.ones(n, dtype=np.float64)
                if n_trusted:
                    ti = np.flatnonzero(trusted)
                    beta[ti] = self._kernel(
                        (threshold - v)[ti], mean_est[ti], var_est[ti],
                        interval[ti], use_cheb[ti])

            # AIMD interval adaptation. reset and grow zones are disjoint
            # for err > 0 (one_minus_slack <= 1); err == 0 rows go to
            # interval 1 without counting a reset.
            err = self.err[at]
            one_minus_slack = self.one_minus_slack[at]
            max_interval = self.max_interval[at]
            to_one = beta > err
            grow_zone = beta <= one_minus_slack * err
            ne1 = interval != 1
            went_one = counted_reset = to_one & ne1
            zero_err = err <= 0.0
            if np.count_nonzero(zero_err):
                counted_reset = went_one & ~zero_err
                grow_zone &= ~zero_err
                to_one = to_one | zero_err
                went_one = to_one & ne1
            streak = np.where(grow_zone, self.streak[at] + 1, 0)
            fired = streak >= self.patience[at]   # patience >= 1
            streak = np.where(fired, 0, streak)
            grew = fired & (interval < max_interval)
            iv_new = np.where(to_one, 1, interval + grew)
            flags = (v > threshold) * 4 + went_one * 2 + grew

            # Coordination statistics accumulation (x + 0.0 == x).
            coord_sum_r = self.coord_sum_r[at] + np.where(
                iv_new < max_interval, 1.0 / iv_new - 1.0 / (iv_new + 1.0),
                0.0)
            log_arg = np.maximum(beta / one_minus_slack, _MIN_ERROR_NEEDED)
        # math.log element-wise: numpy's log kernel is not guaranteed
        # bit-identical to libm's, and coord_sum_log_e is fingerprinted.
        # map() over a pre-converted list keeps the per-element call in C.
        logs = np.fromiter(map(math.log, log_arg.tolist()),
                           dtype=np.float64, count=n)

        self.observations[at] += 1
        self.total_count[at] += has
        self.stat_n[at] = n_acc
        self.mean[at] = mean_acc
        self.var[at] = var_acc
        self.last_value[at] = v
        self.last_time[at] = steps
        if not all_has:
            self.has_last[at] = True
        self.interval[at] = iv_new
        self.streak[at] = streak
        self.reset_events[at] += counted_reset
        self.grow_events[at] += grew
        self.coord_sum_r[at] = coord_sum_r
        self.coord_sum_log_e[at] += logs
        self.coord_n[at] += 1
        self.last_beta[at] = beta
        self.last_flags[at] = flags
        # Schedule advance: iv_new >= 1 always, so without a floored row
        # the gate is the interval itself.
        if self._floored:
            floor = self.floor[at]
            self.suspensions[at] += floor > iv_new
            self.next_due[at] = steps + np.maximum(iv_new, floor)
        else:
            self.next_due[at] = steps + iv_new
        self.samples_taken[at] += 1

        metrics = _adaptation._SAMPLER_METRICS
        if metrics.enabled:
            metrics.observations += n
            metrics.grow_events += int(np.count_nonzero(grew))
            metrics.reset_events += int(np.count_nonzero(went_one))
            metrics.violations += int(np.count_nonzero(flags & 4))
        return rows, steps, values, iv_new, flags, beta, rejected

    @staticmethod
    def _kernel(gap0: np.ndarray, mean_est: np.ndarray, var_est: np.ndarray,
                interval: np.ndarray, use_cheb: np.ndarray) -> np.ndarray:
        """Vectorised misdetection kernels (bit-equal to the fused pair).

        All look-ahead steps at once, as ``(steps, rows)`` matrices as
        tall as the widest interval present. Cell ``(i, r)`` holds the
        single-step violation probability ``q`` the scalar loop computes
        at step ``i`` — ``1/(1+k^2)`` (Cantelli) or ``erfc(k/sqrt2)/2``
        through :func:`math.erfc` — and exactly ``0.0`` past the row's
        interval, so its survive factor ``1 - q`` is the identity there.
        The survive product is taken top to bottom, one multiply per
        step: every row performs the scalar loop's multiplications in
        the scalar loop's order — including the deliberate ``1 - (1 - x)``
        double rounding (``survive`` starts at exactly 1.0 and
        ``1.0 * y == y`` in IEEE) — where a reordering reduce would round
        differently. A step that is certain to violate (``gap <= 0``
        resp. ``q >= 1``) inside the interval makes beta 1 whatever the
        product, as the scalar loop's early exit does.
        """
        n = len(gap0)
        std_est = np.sqrt(var_est)
        step = np.arange(1, int(interval.max()) + 1,
                         dtype=np.float64)[:, None]
        within = step <= interval
        gap = gap0 - step * mean_est
        k = gap / (step * std_est)
        n_cheb = np.count_nonzero(use_cheb)
        cheb = within if n_cheb == n else within & use_cheb
        if n_cheb:
            q = np.where(cheb, 1.0 / (1.0 + k * k), 0.0)
            certain = cheb & (gap <= 0.0)
        else:
            q = np.zeros(k.shape, dtype=np.float64)
            certain = np.zeros(k.shape, dtype=bool)
        if n_cheb < n:
            gauss = within & ~cheb
            # math.erfc element-wise: same libm call as the scalar
            # kernel, so the survive product stays bit-identical.
            args = (k[gauss] / _SQRT2).tolist()
            q[gauss] = 0.5 * np.fromiter(map(math.erfc, args),
                                         dtype=np.float64, count=len(args))
            certain |= gauss & (q >= 1.0)
        factors = 1.0 - q
        survive = factors[0]
        for factor in factors[1:]:
            survive = survive * factor
        beta = np.where(certain.any(axis=0), 1.0, 1.0 - survive)
        zero_std = std_est == 0.0
        if np.count_nonzero(zero_std):
            worst = np.where(mean_est >= 0.0, interval, 1)
            beta = np.where(
                zero_std,
                np.where(gap0 - worst * mean_est > 0.0, 0.0, 1.0), beta)
        return beta
