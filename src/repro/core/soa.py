"""Structure-of-arrays sampler engine (DESIGN.md S31).

:class:`SoaSamplerEngine` advances *many* tasks' violation-likelihood
samplers as column vectors per tick: a hosted shard's tasks, and the
offline sweeps' independent runs stepping in lockstep on one grid
(:func:`~repro.experiments.runner.run_lockstep`, the distributed-task
driver). A tick is a set of offers with at
most one offer per task; :meth:`run_columns` splits an arbitrary decoded
offer batch into such ticks (its strictly increasing runs of rows as they
stand when they are long, stable-sorted occurrence splitting otherwise)
so every task still sees its updates in arrival order. Services may share
one engine (a worker host's shards): a batch is then several services'
parts, and tick ``k`` takes the ``k``-th run of every part, merged by row,
so a host ticks once per step of a frame, not once per shard and step.

A tick's cost is mostly fixed — numpy calls, not elements — so the tick
is written to make few of them: every column is gathered once and every
written column scattered once — through a slice, a view, when the tick's
rows are one contiguous run — the beta kernel covers all look-ahead
steps of all rows in one ``(steps, rows)`` pass, and a tick with fewer
due rows than ``_NARROW_TICK_ROWS`` skips the vector machinery and goes
row by row through :meth:`SoaSamplerEngine.observe_one`, the scalar
mirror of :meth:`~repro.core.adaptation.ViolationLikelihoodSampler.observe`.

The sampler sees one monitored scalar per task. For most rows that is
the offered value; for a windowed row it is the aggregate of its window,
which the engine keeps itself (:meth:`SoaSamplerEngine.set_windows`): a
ring of ``(step, value)`` slots per windowed row in one side table, into
which every offer of a tick is written before the due filter and which
is reduced for the due rows only (DESIGN.md S17). For quantile and
entropy tasks it is a statistic the owning service derives from the
value, and a disarmed trigger guard floors the schedule. None is a
reason to leave the tick: ``run_columns`` calls back into the service
for the marked rows (``absorb`` on every occurrence, ``monitored`` on
the due ones) and the ``floor`` column turns
``next_due = step + interval`` into ``step + max(interval, floor)``. An
engine none of whose rows is windowed, marked or floored touches no
ring, is handed no call-back object and skips the floor gather.

Bit-equivalence contract
------------------------

Every row's state trajectory is bit-identical to driving a scalar
:class:`~repro.core.adaptation.ViolationLikelihoodSampler` through a
scalar service's :meth:`~repro.service.MonitoringService.offer` — the
reference statement of a step — with the same (value, step) stream: the
vectorised Welford / restart / stale-serving /
Cantelli / AIMD / coordination math performs the same floating-point
operations in the same order and association per element (numpy float64
arithmetic is IEEE-754 double, exactly CPython's float). One operation
is *not* vectorised because its numpy kernel is not guaranteed
bit-identical to libm: ``erfc`` (gaussian estimator) runs element-wise
through :mod:`math` over the due rows. ``sqrt``, ``frexp`` (the
coordination product) and the arithmetic primitives are exact or
correctly rounded by IEEE and safe to vectorise. A window's sum is a
``cumsum`` down its slots, oldest first: one addition after another, as
the scalar service's list adds them.

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
from itertools import accumulate
from operator import attrgetter
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.adaptation import (_MIN_ERROR_NEEDED, AdaptationConfig,
                                   CoordinationStats)
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.types import ThresholdDirection

__all__ = ["SoaSamplerEngine", "ColumnBatchResult", "STEP_MIN", "STEP_MAX",
           "MAX_WINDOW", "SAMPLER_STATE", "sampler_state_columns",
           "sampler_state_dict"]

# The steps an engine row accepts. The time columns are int64 and the
# engine computes `step - last_time` and `step + interval` in them, so
# only half the int64 range is admitted: any difference of two accepted
# steps, and any accepted step plus an interval, still fits. Every decode
# point refuses a step outside these bounds before it reaches a column.
STEP_MIN, STEP_MAX = -(1 << 62), (1 << 62) - 1

# The longest window a live task may have: a windowed row's ring is that
# many slots from registration on (DESIGN.md S17). Offline analysis
# (repro.core.windowed) keeps no ring and has no such bound.
MAX_WINDOW = 1 << 16

# The identical double to gaussian_step_violation_estimate's math.sqrt(2.0).
_SQRT2 = math.sqrt(2.0)

# Stand-in for "restarts disabled": no real stream reaches 2**62 samples,
# so `n > limit` never fires (OnlineStatistics' `restart_after=None`).
_NO_RESTART = 2 ** 62

_LOWER = ThresholdDirection.LOWER.value

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)

# The step of a window slot that never held an entry, and the newest step
# of a window that holds none: below every step a row accepts, and apart
# by more than a window, so no read finds either.
_NO_STEP, _NOTHING_HELD = np.iinfo(np.int64).min, STEP_MIN - 1

# A windowed row's window (SoaSamplerEngine.set_windows), one engine
# column each: its size in steps (0: the row has none), its AggregateKind
# as an index into the enum's members, its first slot in the side table,
# and the newest step it holds. An engine allocates them with its first
# window: a fleet with none pays no byte for them.
_WINDOW_COLUMNS = ("window", "window_kind", "window_base", "window_newest")

# What advancing one tick returns: (rows, steps, monitored values, new
# intervals, flags, beta) of the accepted offers, and the rows whose offer
# the sampler refused.
_Tick = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
              np.ndarray, int]

# Ticks with fewer due rows than this are advanced row by row through
# observe_one instead of vectorised: a vectorised tick costs ~110 numpy
# calls whatever its width, observe_one costs per row. Sweep (us per tick,
# all rows due, quiet stream; median of 600 ticks, the two paths
# alternating tick by tick on one CPU of a shared 2-CPU VM, numpy 2.4 /
# CPython 3.11; a hot stream reads the same):
#   width        4    8   12   16   20   24   28   32   48   64
#   vectorised 184  188  195  197  208  212  214  210  215  211
#   row by row  40   64   88  110  140  163  190  215  300  377
# i.e. ~205 us fixed against ~5.6 us a row + 18: they cross near 28 rows,
# and near 25 in a quieter hour (~95 us against ~3.6 us a row + 3). Keyed
# on tick width alone; deliberately not a setting.
_NARROW_TICK_ROWS = 24


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
    "coord_err_mant": ("coord_err_mant", float),
    "coord_err_exp": ("coord_err_exp", int),
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
# A column's dtype by its element type: the engine's i8 / f8 / b1.
_DTYPES = {int: np.dtype(np.int64), float: np.dtype(np.float64),
           bool: np.dtype(np.bool_)}


def _read_only(column: np.ndarray) -> np.ndarray:
    """``column``, which the caller owns, locked: a snapshot column is a
    value, so nobody writes through it."""
    column.flags.writeable = False
    return column


def _array(values: list[Any], kind: type) -> np.ndarray:
    """Python values of element type ``kind`` as a snapshot column: a
    read-only array of its dtype."""
    return _read_only(np.array(values, _DTYPES[kind]))


def _read(objects: Sequence[Any], field: str) -> list[Any]:
    """One attribute (a dotted path) of each of ``objects``: a column
    in the making."""
    return list(map(attrgetter(field), objects))


def _listed(column: Any) -> Any:
    """A snapshot column as a list of Python values, for whatever is
    built or reasoned about element by element: an array's ``tolist()``,
    a list itself. No numpy scalar reaches a task's objects."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _split(lengths: Any, flat: Any) -> list[list[Any]]:
    """A CSR pair of snapshot columns — a length per element, and a
    flat column holding every element's items in turn — as one list of
    items per element."""
    flat, cuts = _listed(flat), [0, *accumulate(_listed(lengths))]
    return [flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def sampler_state_columns(states: list[dict[str, Any]],
                          ) -> dict[str, np.ndarray]:
    """Scalar sampler ``state_dict`` s as :data:`SAMPLER_STATE` columns —
    what :meth:`SoaSamplerEngine.rows_state` reads off rows holding the
    same state, element for element and dtype for dtype."""
    flat = [{**state, **state["stats"]} for state in states]
    columns = {key: [state.get(key) for state in flat]
               for key in SAMPLER_STATE}
    for flag, keys in _FLAGGED.items():
        columns[flag] = [value is not None for value in columns[keys[0]]]
        for key in keys:
            columns[key] = [0 if value is None else value
                            for value in columns[key]]
    return {key: _read_only(np.array(columns[key], dtype=_DTYPES[kind]))
            for key, (_, kind) in SAMPLER_STATE.items()}


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


class _Views:
    """:attr:`SoaSamplerEngine.views`: one ``memoryview`` per engine
    column, by the column's name."""

    __slots__ = (
        "sign", "threshold", "alert_threshold", "err", "max_interval",
        "patience", "min_samples", "one_minus_slack", "use_cheb",
        "restart_limit", "min_fresh", "interval", "streak", "last_value",
        "has_last", "last_time", "observations", "grow_events",
        "reset_events", "coord_sum_r", "coord_err_mant", "coord_err_exp",
        "coord_n", "last_beta", "last_flags", "stat_n", "mean", "var",
        "stale_mean", "stale_var", "has_stale", "stale_count", "restarts",
        "total_count", "next_due", "samples_taken", "alerts", "active",
        "derived", "watched", "floor", "suspensions", "holder")


class ColumnBatchResult:
    """Outcome of one :meth:`SoaSamplerEngine.run_columns` call.

    The ``event_*`` arrays carry
    the rare alert/trace-worthy offers (flags: 1 grew, 2 reset, 4
    violation) for the service to materialise, in tick order — so each
    task's in its arrival order; ``viol_*`` is their violating subset,
    for a caller that only alerts. ``consumed_rows`` is the row of each
    consumed offer (parallel to ``consumed_intervals``), ``rejected_at``
    the batch position of each offer rejected before any tick (no row, a
    non-finite value) and ``refused_rows`` the row of each due offer the
    sampler refused: what a batch of several holders' parts is split back
    by. The defaults are class attributes —
    shared, and empty, so nothing can be written through them — which
    makes a result free to create on the per-batch path.
    """

    applied = 0
    consumed = 0
    rejected = 0
    consumed_intervals = _EMPTY_I8
    consumed_rows = _EMPTY_I8
    rejected_at = _EMPTY_I8
    refused_rows = _EMPTY_I8
    viol_rows = _EMPTY_I8
    viol_steps = _EMPTY_I8
    viol_values = _EMPTY_F8
    event_rows = _EMPTY_I8
    event_steps = _EMPTY_I8
    event_values = _EMPTY_F8
    event_intervals = _EMPTY_I8
    event_flags = _EMPTY_I8
    event_betas = _EMPTY_F8


class SoaSamplerEngine:
    """Columnar storage + vectorised stepping for many samplers.

    Rows are allocated by :meth:`add_task` and never reused: a removed
    task's row is deactivated, so stale row references held by
    long-lived connections are re-resolved by name (or rejected) instead
    of silently hitting another task's state. An inactive row is a retired
    row: ``active`` goes up at allocation and down in :meth:`deactivate`.

    Several services may hold rows of one engine (a worker host's
    shards). What they keep per row lives here, filled by them:
    ``row_names`` (every row's task name, by row, retired rows' too —
    what a trace names a row by), ``row_states`` (an active row's task
    state, by row) and the ``holder`` column (a number each service takes
    from ``holders`` and tags its rows with).
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
        # The windows' side table: one ring of ``window`` slots per
        # windowed row, from its ``window_base`` on (set_windows); an
        # engine that never had a windowed row has no slot in use.
        self.slot_step = np.empty(0, dtype=np.int64)
        self.slot_value = np.empty(0, dtype=np.float64)
        self._slots = 0
        # Retired rows' rings by size, each emptied, for the next window
        # of that size to take (deactivate, set_windows).
        self._free_rings: dict[int, list[int]] = {}
        self.row_names: list[str] = []
        self.row_states: dict[int, Any] = {}
        self.holders = 0
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
        self.coord_err_mant = f8()
        self.coord_err_exp = i8()
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
        # the owning service (mark_row / set_floor). derived: a substrate
        # takes every offered value, due or not, and the sampler sees a
        # statistic the service computes from it when the row is due
        # (exceedance, entropy). watched: a
        # trigger watcher reads the row's offered values (the service
        # scans these before a batch; the tick itself ignores the mark).
        # floor: least advance to the next due step — a disarmed guard's
        # suspend interval, else 1; suspensions counts the consumed
        # offers the floor deferred.
        self.derived = b1()
        self.watched = b1()
        self.floor = i8()
        self.suspensions = i8()
        self.holder = i8()             # the service holding the row
        self._bind_views()

    _COLUMNS = _Views.__slots__

    def __len__(self) -> int:
        return self._rows

    def _grow(self, rows: int) -> None:
        """Make room for ``rows`` rows in one step: the capacity doubled
        as often as that takes."""
        capacity = len(self.sign)
        while capacity < rows:
            capacity *= 2
        for name in self._COLUMNS + (_WINDOW_COLUMNS if self._slots else ()):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)
        self._bind_views()

    def _bind_views(self) -> None:
        """One ``memoryview`` per column over the array bound now (call it
        wherever a column is bound): the scalar surface's way to one
        element, a Python number where indexing the array makes a numpy
        scalar. The views alias the columns, the one home of the state."""
        self.views = _Views()
        for name in self._COLUMNS:
            setattr(self.views, name, memoryview(getattr(self, name)))

    # ------------------------------------------------------------------
    # Row lifecycle

    def add_task(self, task: TaskSpec,
                 config: AdaptationConfig | None = None,
                 holder: int = 0) -> int:
        """Allocate a row for ``task`` in its scalar-fresh initial state,
        tagged with ``holder``."""
        config = config or AdaptationConfig()
        if self._rows == len(self.sign):
            self._grow(self._rows + 1)
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
        self.holder[row] = holder
        self._freshen(row)
        return row

    def _freshen(self, at: int | slice) -> None:
        """The mutable state of newly allocated rows, scalar-fresh."""
        self.interval[at] = 1
        self.streak[at] = 0
        self.has_last[at] = False
        self.last_beta[at] = 1.0
        self.last_flags[at] = 0
        self.coord_err_mant[at] = 1.0
        self.next_due[at] = 0
        self.samples_taken[at] = 0
        self.alerts[at] = 0
        self.floor[at] = 1
        self.active[at] = True

    def add_tasks(self, spec: Mapping[str, Any],
                  configs: Sequence[AdaptationConfig],
                  adaptation: Any, holder: int = 0) -> range:
        """:meth:`add_task` for many tasks at once (a restore, a sweep):
        the rows, in order. ``spec`` holds the tasks' :class:`TaskSpec`
        fields as columns, each an array or a list — a snapshot's
        ``spec`` group, or :func:`~repro.core.task.spec_columns` of the
        specs — of which ``threshold``, ``error_allowance``,
        ``max_interval`` and ``direction`` (by value) are read; row ``i``
        takes ``configs[adaptation[i]]``. Each column is stored once:
        sign and oriented threshold as vector expressions, each config
        field read once per config and gathered by ``adaptation``. The
        engine grows at most once, to fit; every row is tagged with
        ``holder``."""
        adaptation = np.asarray(adaptation, dtype=np.int64)
        rows = range(self._rows, self._rows + len(adaptation))
        if rows.stop > len(self.sign):
            self._grow(rows.stop)
        self._rows = rows.stop
        at = slice(rows.start, rows.stop)
        threshold = np.asarray(spec["threshold"], dtype=np.float64)
        # TaskSpec.oriented: a lower threshold is the negated upper one.
        sign = np.where([direction == _LOWER for direction
                         in spec["direction"]], -1.0, 1.0)
        self.sign[at] = sign
        self.threshold[at] = sign * threshold
        self.alert_threshold[at] = threshold
        self.err[at] = spec["error_allowance"]
        self.max_interval[at] = spec["max_interval"]

        def per_config(values: list[Any]) -> np.ndarray:
            return np.asarray(values)[adaptation]
        self.patience[at] = per_config(
            [config.patience for config in configs])
        self.min_samples[at] = self.min_fresh[at] = per_config(
            [config.min_samples for config in configs])
        self.one_minus_slack[at] = per_config(
            [1.0 - config.slack_ratio for config in configs])
        self.use_cheb[at] = per_config(
            [config.estimator == "chebyshev" for config in configs])
        self.restart_limit[at] = per_config(
            [_NO_RESTART if config.stats_restart is None
             else config.stats_restart for config in configs])
        self.holder[at] = holder
        self._freshen(at)
        return rows

    def deactivate(self, row: int) -> None:
        """Retire a row; offers routed to it are re-resolved or
        rejected (:meth:`run_columns`)."""
        self.mark_row(row)
        self.set_floor(row, 1)
        self.views.active[row] = False
        if self._slots and (size := int(self.window[row])):
            base = int(self.window_base[row])
            self.slot_step[base:base + size] = _NO_STEP
            self._free_rings.setdefault(size, []).append(base)
            self.window[row] = 0

    def mark_row(self, row: int, derived: bool = False,
                 watched: bool = False) -> None:
        """Set the row's ``derived`` / ``watched`` marks."""
        self.derived_rows += derived - self.views.derived[row]
        self.views.derived[row] = derived
        self.views.watched[row] = watched

    def set_windows(self, rows: Any, windows: Any, kinds: Any) -> None:
        """Give each of ``rows`` an empty window of ``windows`` steps,
        reduced by ``kinds`` (:class:`~repro.core.windowed.AggregateKind`
        members, held as their indices): a ring
        of that many slots, a retired row's of that size if there is one,
        else at the end of the side table, which grows at most once, to
        fit. The entry for step ``s`` sits in slot ``s % window`` of its
        ring: a window holds one entry at most per step of
        ``(newest - window, newest]``, so none shares a slot."""
        if not self._slots:
            for name in _WINDOW_COLUMNS:
                setattr(self, name, np.zeros(len(self.sign), dtype=np.int64))
        windows = np.asarray(windows, dtype=np.int64)
        bases = np.empty_like(windows)
        for i, size in enumerate(windows.tolist()):
            if self._free_rings.get(size):
                bases[i] = self._free_rings[size].pop()
            else:
                bases[i], self._slots = self._slots, self._slots + size
        held = len(self.slot_step)
        if self._slots > held:
            more = max(self._slots, 2 * held) - held
            self.slot_step = np.append(self.slot_step, np.full(more, _NO_STEP))
            self.slot_value = np.append(self.slot_value, np.zeros(more))
        self.window[rows] = windows
        self.window_kind[rows] = list(map(list(AggregateKind).index, kinds))
        self.window_base[rows] = bases
        self.window_newest[rows] = _NOTHING_HELD

    def load_windows(self, rows: Any, lengths: Any, steps: Any,
                     values: Any) -> None:
        """Fill the empty windows of ``rows`` with what a snapshot's
        ``sparse.window_values`` holds: ``lengths[i]`` entries each,
        oldest first, their steps and values flat and in turn, taken as
        one tick of offers none of which is due — each newer than an
        empty window's newest, and no two in one slot."""
        lengths = np.asarray(lengths, dtype=np.int64)
        steps = np.asarray(steps, dtype=np.int64)
        owners = np.repeat(rows, lengths)
        self._window_tick(owners, steps, np.asarray(values, dtype=np.float64),
                          owners, np.zeros(len(steps), dtype=bool))
        self.window_newest[rows] = steps[np.cumsum(lengths) - 1]

    def window_entries(self, rows: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the windows of ``rows`` hold, oldest first, as CSR: the
        number of entries of each row, then every row's steps and values
        in turn. Each row's own ``window`` steps are walked, no more."""
        size = self.window[rows]
        starts = np.cumsum(size) - size
        steps = (np.repeat(self.window_newest[rows] - size + 1 - starts, size)
                 + np.arange(int(starts[-1] + size[-1])))
        slots = np.repeat(self.window_base[rows], size) + steps % np.repeat(
            size, size)
        held = self.slot_step[slots] == steps
        return (np.add.reduceat(held, starts, dtype=np.int64), steps[held],
                self.slot_value[slots[held]])

    def _read_windows(self, rows: np.ndarray,
                      steps: np.ndarray) -> np.ndarray:
        """The aggregate a sample of each of ``rows`` at ``steps`` reads
        (DESIGN.md S17): of the entries its window holds, those at or
        before the step, read down one ``(slots, rows)`` matrix as tall
        as the widest window of ``rows`` — one matrix per octave of
        window sizes, so a read walks at most twice its own window. A
        SUM or MEAN adds them oldest first, so down the matrix, the
        slots a row skips adding ``-0.0`` (which leaves any sum as it
        is); a MAX or MIN zero reads ``+0.0``. A read of no entry is
        NaN, which the sampler refuses as it refuses an overflowed
        sum."""
        size = self.window[rows]
        if size.max() >= 2 * size.min():
            octave = np.frexp(size)[1]
            out = np.empty(len(rows))
            for group in np.unique(octave):  # each one matrix
                at = (octave == group).nonzero()[0]
                out[at] = self._read_windows(rows[at], steps[at])
            return out
        at = (self.window_newest[rows] - size + 1
              + np.arange(int(size.max()))[:, None])
        slots = self.window_base[rows] + at % size
        held = (self.slot_step[slots] == at) & (at <= steps)
        values, kind = self.slot_value[slots], self.window_kind[rows]
        count = held.sum(axis=0)
        with np.errstate(all="ignore"):  # an overflowed sum is refused
            out = np.cumsum(np.where(held, values, -0.0), axis=0)[-1]
            out = np.where(kind == 0, out / count, out)
        if np.count_nonzero(kind >= 2):
            out = np.where(kind < 2, out, np.where(
                kind == 2, np.where(held, values, -np.inf).max(axis=0),
                np.where(held, values, np.inf).min(axis=0)) + 0.0)
        return np.where(count > 0, out, np.nan)

    def set_floor(self, row: int, floor: int) -> None:
        """Set the least advance from a consumed offer to the row's next
        due step (1 = the sampler's interval alone decides)."""
        self._floored += (floor > 1) - (self.views.floor[row] > 1)
        self.views.floor[row] = floor

    def resume_full_rate(self, row: int) -> None:
        """:meth:`ViolationLikelihoodSampler.resume_full_rate` on a row,
        and due at the very next offer (a guard's arm edge)."""
        self.views.interval[row] = 1
        self.views.streak[row] = 0
        self.views.next_due[row] = 0

    def advance_one(self, row: int, step: int, interval: int) -> None:
        """Schedule the row after a consumed offer at ``step`` that left
        the sampler at ``interval`` (the row-at-a-time twin of the tail
        of :meth:`_observe_tick`)."""
        c = self.views
        advance = interval if interval > 1 else 1
        if self._floored and c.floor[row] > advance:
            advance = c.floor[row]
            c.suspensions[row] += 1
        c.next_due[row] = step + advance
        c.samples_taken[row] += 1

    def drain_coordination(self, rows: np.ndarray | slice,
                           ) -> list[CoordinationStats | None]:
        """:meth:`ViolationLikelihoodSampler.drain_coordination_stats` for
        ``rows``, float for float: one report per row (``None`` for a row
        that observed nothing since its last drain), then every row's
        accumulators reset, through the same
        :meth:`CoordinationStats.of_period`."""
        periods = zip(self.coord_sum_r[rows].tolist(),
                      self.coord_err_mant[rows].tolist(),
                      self.coord_err_exp[rows].tolist(),
                      self.coord_n[rows].tolist())
        self.coord_n[rows] = self.coord_err_exp[rows] = 0
        self.coord_sum_r[rows] = 0.0
        self.coord_err_mant[rows] = 1.0
        return [None if n == 0 else CoordinationStats.of_period(
                    sum_r, mant, exp, n) for sum_r, mant, exp, n in periods]

    # ------------------------------------------------------------------
    # Sampler state as snapshot columns (DESIGN.md S31 "snapshots are
    # columns")

    def rows_state(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """The sampler state of ``rows`` as a snapshot holds it: one
        read-only array per :data:`SAMPLER_STATE` key, each column
        gathered once into an array of its own, so the rows moving on
        leave it as it was.

        An absent ``last_value`` / ``last_time`` / ``stale_mean`` /
        ``stale_var`` is its flag column false and the value written as
        zero, whatever the row holds there — what a fingerprint sees is
        the state, not the row's history.
        """
        state = {key: getattr(self, column)[rows]
                 for key, (column, _) in SAMPLER_STATE.items()}
        for flag, keys in _FLAGGED.items():
            for key in keys:
                state[key] = np.where(state[flag], state[key], 0)
        return {key: _read_only(column) for key, column in state.items()}

    def load_rows_state(self, rows: np.ndarray | slice,
                        state: dict[str, Any]) -> None:
        """Load :meth:`rows_state` columns — arrays, or lists of the same
        elements — into ``rows``, one scatter per column. The columns
        are taken as they are: a snapshot's have passed the snapshot
        validator (``repro.service._check_snapshot``), ranges included."""
        for key, (column, _) in SAMPLER_STATE.items():
            getattr(self, column)[rows] = state[key]

    def row_state_dict(self, row: int) -> dict[str, Any]:
        """One row's sampler state in the exact scalar ``state_dict``
        shape — the diagnostic view of :meth:`rows_state`, in plain
        Python values."""
        state = self.rows_state(np.asarray([row], dtype=np.int64))
        return sampler_state_dict(
            {key: column.tolist() for key, column in state.items()}, 0)

    # ------------------------------------------------------------------
    # Scalar drive surface (narrow ticks and the offline drivers)

    def observe_one(self, row: int, value: float, step: int) -> int:
        """Advance one row by one offer; returns the next interval.

        The exact scalar-math mirror of
        :meth:`ViolationLikelihoodSampler.observe` operating on column
        storage, for a tick too narrow to vectorise (a by-name offer is
        a batch of one). Reads and writes go through :attr:`views`, so
        every element is a Python number.
        """
        c = self.views
        v = c.sign[row] * value
        threshold = c.threshold[row]
        flags = 4 if v > threshold else 0

        if c.has_last[row]:
            last_time = c.last_time[row]
            steps = step - last_time
            if steps <= 0:
                raise ValueError(
                    f"time_index must increase: {step} after {last_time}")
            x = (v - c.last_value[row]) / steps
            if not math.isfinite(x):
                raise ValueError(f"non-finite observation: {x!r}")
            n_acc = c.stat_n[row] + 1
            prev_mean = c.mean[row]
            mean_acc = prev_mean + (x - prev_mean) / n_acc
            var_acc = ((n_acc - 1) * c.var[row]
                       + (x - mean_acc) * (x - prev_mean)) / n_acc
            overflow = not math.isfinite(var_acc)
            if overflow:  # restart the statistics without the delta
                n_acc, mean_acc, var_acc = n_acc - 1, prev_mean, c.var[row]
            c.total_count[row] += 1
            if overflow or n_acc > c.restart_limit[row]:
                c.stale_mean[row] = mean_acc
                c.stale_var[row] = var_acc
                c.stale_count[row] = n_acc
                c.has_stale[row] = True
                c.restarts[row] += 1
                n_acc = 0
                mean_acc = 0.0
                var_acc = 0.0
            c.stat_n[row] = n_acc
            c.mean[row] = mean_acc
            c.var[row] = var_acc
        else:
            n_acc = c.stat_n[row]
            mean_acc = c.mean[row]
            var_acc = c.var[row]
        c.observations[row] += 1
        c.last_value[row] = v
        c.last_time[row] = step
        c.has_last[row] = True

        if c.has_stale[row] and n_acc < c.min_fresh[row]:
            eff = c.stale_count[row]
            mean_est = c.stale_mean[row]
            var_est = c.stale_var[row]
        else:
            eff = n_acc
            mean_est = mean_acc
            var_est = 0.0 if var_acc < 0.0 else var_acc     # max(var, 0.0)

        interval = c.interval[row]
        if eff >= c.min_samples[row]:
            std_est = math.sqrt(var_est)
            gap0 = threshold - v
            if std_est == 0.0:
                worst = interval if mean_est >= 0.0 else 1
                beta = 0.0 if gap0 - worst * mean_est > 0.0 else 1.0
            elif c.use_cheb[row]:
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

        err = c.err[row]
        one_minus_slack = c.one_minus_slack[row]
        streak = c.streak[row]
        if err <= 0.0:
            if interval != 1:
                interval = 1
                flags |= 2
            streak = 0
        elif beta > err:
            if interval != 1:
                flags |= 2
                interval = 1
                c.reset_events[row] += 1
            streak = 0
        elif beta <= one_minus_slack * err:
            streak += 1
            if streak >= c.patience[row]:
                streak = 0
                if interval < c.max_interval[row]:
                    interval += 1
                    flags |= 1
                    c.grow_events[row] += 1
        else:
            streak = 0

        if interval < c.max_interval[row]:
            c.coord_sum_r[row] += 1.0 / interval - 1.0 / (interval + 1.0)
        needed = beta / one_minus_slack
        c.coord_err_mant[row], exp = math.frexp(c.coord_err_mant[row] * (
            _MIN_ERROR_NEEDED if _MIN_ERROR_NEEDED > needed else needed))
        c.coord_err_exp[row] += exp
        c.coord_n[row] += 1

        c.interval[row] = interval
        c.streak[row] = streak
        c.last_beta[row] = beta
        c.last_flags[row] = flags
        return interval

    # ------------------------------------------------------------------
    # Vectorised drive surface

    def run_columns(self, rows: np.ndarray, steps: np.ndarray,
                    values: np.ndarray, hooks: Any = None,
                    resolve: Any = None,
                    starts: list[int] | None = None) -> ColumnBatchResult:
        """Apply a decoded offer batch (may repeat rows) to the columns.

        Splits the batch into ticks — one occurrence per row, in arrival
        order — and advances each tick, vectorised or (narrow ticks) row
        by row. A row that is negative (unresolved) or not ``active``
        (retired) is first re-resolved: ``resolve(positions)`` gives the
        current row of the offer at each of those positions, ``-1`` where
        there is none. What is still unusable then — no row, or a
        non-finite value — is rejected here, before any column sees it;
        everything else steps in arrival order. Without ``resolve`` an
        unusable row is rejected.

        ``starts`` cuts a batch of several services' parts (the first
        position of each, ascending; the parts' rows disjoint) so each
        part is planned as if alone (:meth:`_ticks`); ``None`` is one
        part.

        Each windowed row's window takes the tick's offer before the due
        check, if its step is after the newest one the window holds, and
        a due windowed row's monitored scalar is what its window then
        reads at the step (:meth:`_read_windows`). ``hooks`` is the owner
        of what the marked rows keep outside the columns, called back per
        tick: ``hooks.absorb(rows, values)`` for the tick's ``derived``
        rows, before the due check, and ``hooks.monitored(rows, steps,
        values)`` for its due ``derived`` rows, whose return (one
        statistic per row) replaces their values for the rest of the tick
        — the sampler step, ``viol_values``. Without ``hooks`` every
        unwindowed row's monitored scalar is its value.
        """
        result = ColumnBatchResult()
        if len(rows) == 0:
            return result
        act = self.active[rows] & (rows >= 0)
        usable = act & np.isfinite(values)
        if np.count_nonzero(usable) < len(rows):
            stray = (~act).nonzero()[0]
            if resolve is not None and len(stray):
                rows = rows.copy()
                rows[stray] = found = resolve(stray)
                usable[stray] = (found >= 0) & np.isfinite(values[stray])
            keep = usable.nonzero()[0]
            result.rejected = len(rows) - len(keep)
            result.rejected_at = (~usable).nonzero()[0]
            if starts is not None:
                starts = np.searchsorted(keep, starts).tolist()
            rows = rows[keep]
            steps = steps[keep]
            values = values[keep]
            if len(rows) == 0:
                return result

        events: list[tuple[np.ndarray, ...]] = []
        consumed: list[tuple[np.ndarray, np.ndarray]] = []
        refused: list[np.ndarray] = []
        for sel in self._ticks(rows, starts):
            tick_rows = rows[sel]
            tick_steps = steps[sel]
            tick_values = values[sel]
            at = _columns_at(tick_rows)
            due = tick_steps >= self.next_due[at]
            if self._slots:
                tick_values = self._window_tick(tick_rows, tick_steps,
                                                tick_values, at, due)
            if hooks is not None:
                marked = self.derived[at].nonzero()[0]
                if len(marked):
                    hooks.absorb(tick_rows[marked], tick_values[marked])
            n_due = int(np.count_nonzero(due))
            result.applied += len(tick_rows) - n_due
            if n_due == 0:
                continue
            if n_due < len(tick_rows):
                d = due.nonzero()[0]
                tick_rows = at = tick_rows[d]
                tick_steps = tick_steps[d]
                tick_values = tick_values[d]
            if hooks is not None:
                marked = self.derived[at].nonzero()[0]
                if len(marked):
                    tick_values = tick_values.copy()
                    tick_values[marked] = hooks.monitored(
                        tick_rows[marked], tick_steps[marked],
                        tick_values[marked])
            advance = (self._observe_narrow if n_due < _NARROW_TICK_ROWS
                       else self._observe_tick)
            (ok_rows, ok_steps, ok_values, iv_new, flags, beta,
             refused_rows) = advance(tick_rows, tick_values, tick_steps)
            if len(refused_rows):
                result.rejected += len(refused_rows)
                refused.append(refused_rows)
            result.applied += len(ok_rows)
            result.consumed += len(ok_rows)
            if len(ok_rows) == 0:
                continue
            consumed.append((ok_rows, iv_new))
            if np.count_nonzero(flags):
                events.append((ok_rows, ok_steps, ok_values, iv_new, flags,
                               beta))

        if consumed:
            result.consumed_rows, result.consumed_intervals = (
                cols[0] if len(cols) == 1 else np.concatenate(cols)
                for cols in zip(*consumed))
        if refused:
            result.refused_rows = np.concatenate(refused)
        if events:
            (ev_rows, ev_steps, ev_values, ev_iv, ev_flags, ev_beta) = (
                cols[0] if len(cols) == 1 else np.concatenate(cols)
                for cols in zip(*events))
            flagged = ev_flags.nonzero()[0]
            result.event_rows = ev_rows[flagged]
            result.event_steps = ev_steps[flagged]
            result.event_values = ev_values[flagged]
            result.event_intervals = ev_iv[flagged]
            result.event_flags = flags = ev_flags[flagged]
            result.event_betas = ev_beta[flagged]
            viol = (flags & 4).nonzero()[0]
            result.viol_rows = result.event_rows[viol]
            result.viol_steps = result.event_steps[viol]
            result.viol_values = result.event_values[viol]
        return result

    def _ticks(self, rows: np.ndarray, starts: list[int] | None,
               ) -> list[Any]:
        """Cut a batch into ticks — each a slice or an index array of its
        positions, rows strictly ascending, each row at most once — so
        that every row's offers fall in tick order as they arrived.

        A strictly increasing run repeats no row, so it is a tick as it
        stands, and runs taken in order keep each row's offers in arrival
        order: one run (a per-node agent's frame) or a few long ones (a
        step-major frame) tick as slices, unsorted. Short runs regroup by
        occurrence instead: a stable sort groups equal rows in arrival
        order, and tick ``k`` takes every row's ``k``-th occurrence.

        A batch of several parts (``starts``) is planned part by part:
        when each part is one run or long runs, tick ``k`` is the
        ``k``-th run of every part, merged by one stable argsort of its
        rows — so a tick whose rows are a contiguous block of the engine
        is still a slice of the columns; otherwise the whole batch
        regroups by occurrence, which, the parts' rows being disjoint, is
        each part's own regrouping.
        """
        n = len(rows)
        descents = rows[1:] <= rows[:-1]
        count = int(np.count_nonzero(descents))
        if not count:
            return [slice(None)]
        firsts = starts or [0]
        # Past this many descents some part of many runs has short ones.
        if (count - len(firsts) + 1) * _NARROW_TICK_ROWS <= n:
            cuts = (descents.nonzero()[0] + 1).tolist()
            # Each part's runs: its start, its descents, its end.
            bounds, at = [], 0
            for lo, hi in zip(firsts, [*firsts[1:], n]):
                while at < count and cuts[at] <= lo:
                    at += 1
                part = [lo]
                while at < count and cuts[at] < hi:
                    part.append(cuts[at])
                    at += 1
                if hi > lo:
                    bounds.append(part + [hi])
            if all(len(part) == 2 or part[-1] - part[0] >= (
                    len(part) - 1) * _NARROW_TICK_ROWS for part in bounds):
                return self._merged_runs(rows, bounds)
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=new_group[1:])
        group_starts = new_group.nonzero()[0]
        if len(group_starts) == n:
            return [order]
        group_ids = np.cumsum(new_group) - 1
        occurrence = np.arange(n) - group_starts[group_ids]
        return [order[occurrence == k]
                for k in range(int(occurrence.max()) + 1)]

    @staticmethod
    def _merged_runs(rows: np.ndarray, bounds: list[list[int]],
                     ) -> list[Any]:
        """Tick ``k`` of long runs: the ``k``-th run of every part (each
        part's run bounds in ``bounds``), a slice where one part has it,
        else its positions ordered by row."""
        if max(map(len, bounds)) == 2:      # every part one run
            return [np.argsort(rows, kind="stable")]
        positions = np.arange(len(rows))
        ticks: list[Any] = []
        for k in range(max(map(len, bounds)) - 1):
            runs = [slice(part[k], part[k + 1]) for part in bounds
                    if len(part) > k + 1]
            if len(runs) == 1:
                ticks.append(runs[0])
                continue
            at = np.concatenate([positions[run] for run in runs])
            ticks.append(at[np.argsort(rows[at], kind="stable")])
        return ticks

    def _window_tick(self, rows: np.ndarray, steps: np.ndarray,
                     values: np.ndarray, at: Any,
                     due: np.ndarray) -> np.ndarray:
        """Enter a tick's offers into the windows of its windowed rows
        (reached through ``at``, :func:`_columns_at`) — those stepped
        after the newest step their window holds, one write per column —
        and return the tick's values with each ``due`` one's replaced by
        what its window then reads at its step (:meth:`_read_windows`)."""
        ring = self.window[at].nonzero()[0]
        taken = ring[steps[ring] > self.window_newest[rows[ring]]]
        new_rows, new_steps = rows[taken], steps[taken]
        slots = self.window_base[new_rows] + new_steps % self.window[new_rows]
        self.slot_step[slots] = new_steps
        self.slot_value[slots] = values[taken]
        self.window_newest[new_rows] = new_steps
        read = ring[due[ring]]
        if len(read):
            values = values.copy()
            values[read] = self._read_windows(rows[read], steps[read])
        return values

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
        refused = _EMPTY_I8
        if len(ok) < len(rows):
            kept = np.zeros(len(rows), dtype=bool)
            kept[ok] = True
            refused = rows[~kept]
            rows = rows[kept]
            steps = steps[kept]
            values = values[kept]
        return (rows, steps, values, np.asarray(iv_new, dtype=np.int64),
                self.last_flags[rows], self.last_beta[rows], refused)

    def _observe_tick(self, rows: np.ndarray, values: np.ndarray,
                      steps: np.ndarray) -> _Tick:
        """Advance unique ``rows`` by one offer each (all due and active).

        Returns ``(rows, steps, values, new_intervals, flags, beta)``
        for the accepted subset, and the refused rows. Matches the scalar error
        contract: a non-increasing step or non-finite delta rejects only
        that row's offer and leaves every column of the row — the
        observation counter included — untouched, and a finite delta
        whose update overflows the variance restarts the row's
        statistics without it.

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
            # Welford update with restart (OnlineStatistics.update); rows
            # on their first-ever offer have no delta and keep their stats.
            dt = steps - self.last_time[at]
            x = (v - self.last_value[at]) / dt
            stat_n = self.stat_n[at]
            prev_mean = self.mean[at]
            n_acc = stat_n + 1
            mean_acc = prev_mean + (x - prev_mean) / n_acc
            var_acc = (stat_n * self.var[at]
                       + (x - mean_acc) * (x - prev_mean)) / n_acc
            bad = has & ((dt <= 0) | ~np.isfinite(x))
            refused = _EMPTY_I8
            if np.count_nonzero(bad):
                refused = rows[bad]
                ok = (~bad).nonzero()[0]
                rows = at = rows[ok]
                (steps, values, v, threshold, has, stat_n, prev_mean, n_acc,
                 mean_acc, var_acc) = (column[ok] for column in (
                     steps, values, v, threshold, has, stat_n, prev_mean,
                     n_acc, mean_acc, var_acc))
                if len(rows) == 0:
                    return (rows, steps, values, _EMPTY_I8, _EMPTY_I8,
                            _EMPTY_F8, refused)
            n = len(rows)
            all_has = np.count_nonzero(has) == n
            restart = n_acc > self.restart_limit[at]
            # A finite delta whose update overflows the variance restarts
            # the statistics without it.
            absorbed = has & np.isfinite(var_acc)
            if np.count_nonzero(absorbed) < n:
                restart = np.where(absorbed, restart, has)
                n_acc = np.where(absorbed, n_acc, stat_n)
                mean_acc = np.where(absorbed, mean_acc, prev_mean)
                var_acc = np.where(absorbed, var_acc, self.var[at])
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
                    ti = trusted.nonzero()[0]
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
            err_mant, err_exp = np.frexp(self.coord_err_mant[at] * np.maximum(
                beta / one_minus_slack, _MIN_ERROR_NEEDED))

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
        self.coord_err_mant[at] = err_mant
        self.coord_err_exp[at] += err_exp
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
        return rows, steps, values, iv_new, flags, beta, refused

    @staticmethod
    def _kernel(gap0: np.ndarray, mean_est: np.ndarray, var_est: np.ndarray,
                interval: np.ndarray, use_cheb: np.ndarray) -> np.ndarray:
        """Vectorised misdetection kernels (bit-equal to
        ``misdetection_bound_fused`` and ``gaussian_misdetection_estimate``).

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
