"""Hypothesis property: the SoA engine is the scalar sampler at every
tick width, on either side of its row-by-row crossover.

Hypothesis draws the *shape* of the traffic — tick widths straddling
``_NARROW_TICK_ROWS``, step gaps, repeated rows, stale steps, where the
NaNs and infinities fall, the restart period, the estimator mix — and a
seed for the values; the ``soa_differential`` harness (tests/conftest.py)
feeds a scalar and an SoA service the same offers and holds batch
accounting, snapshots, alerts, counters and per-task trace events equal.
The second property holds ``offer_columns`` to its own batch boundaries:
where a frame is cut must not show, for tasks of every kind. The third
holds ``run_columns`` to its tick split: whether a frame's runs are
ticked as slices or regrouped by the argsort must not show either. The
fourth holds the engine service's columnar alert history — log, count
column, callbacks, trace batches, snapshot columns — to the scalar oracle's
per-alert objects, across by-name offers, task churn and a cross-restore.
The fifth holds the snapshot document: byte-equal from either
representation, written back as read by either, whichever wrote it.
"""

from __future__ import annotations

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import soa as soa_mod
from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.runtime.checkpoint import state_fingerprint
from repro.service import MonitoringService
from repro.telemetry.trace import DecisionTrace

CROSSOVER = soa_mod._NARROW_TICK_ROWS
TASKS = 4 * CROSSOVER + 4

rounds = st.lists(
    st.tuples(
        st.sampled_from((1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1,
                         4 * CROSSOVER)),          # due rows wanted
        st.integers(min_value=1, max_value=8),     # step gap
        st.integers(min_value=0, max_value=4),     # rows offered twice
        st.integers(min_value=0, max_value=3),     # not-due extras
        st.sampled_from((None, None, None, float("nan"), float("inf"),
                         float("-inf"))),          # poison for one offer
        st.booleans()),                            # one stale step
    min_size=4, max_size=30)


@given(estimator=st.sampled_from(("chebyshev", "gaussian", "mixed")),
       stats_restart=st.sampled_from((None, 5, 9, 40)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       rounds=rounds, churn=st.booleans())
@settings(max_examples=30, deadline=None)
def test_any_tick_width_matches_the_scalar_service(
        soa_differential, estimator, stats_restart, seed, rounds, churn):
    rng = np.random.default_rng(seed)
    pair = soa_differential(soa_differential.population(
        TASKS, estimator, stats_restart=stats_restart))
    step = 0
    for n, (width, gap, twice, extras, poison, stale) in enumerate(rounds):
        step += gap
        live = [i for i, name in enumerate(pair.names)
                if name in pair.scalar.task_names]
        due = [i for i in live if pair.scalar.due(pair.names[i], step)]
        rest = [i for i in range(TASKS) if i not in due]
        idx = [int(i) for i in rng.permutation(due)[:width]]
        idx += [int(i) for i in rng.permutation(rest)[:extras]]
        steps = [step] * len(idx)
        idx += idx[:twice]
        steps += [step + 1] * (len(idx) - len(steps))
        step += 1
        values = [pair.value(rng, i, s) for i, s in zip(idx, steps)]
        if poison is not None and values:
            values[int(rng.integers(len(values)))] = poison
        if stale and steps:
            steps[0] = max(steps[0] - 6, 0)
        if idx:
            pair.offer(idx, steps, values)
        if churn and n == len(rounds) // 2:
            for service in (pair.scalar, pair.vector):
                service.remove_task(pair.names[1])
                service.add_trigger(pair.names[4], pair.names[6],
                                    elevation_level=60.0)
    pair.check()


def _every_kind(soa_differential, estimator, sink):
    """An SoA service with plain tasks and ``register_kinds``' (windowed,
    quantile, entropy, guarded, watched); returns it with its task names,
    rows and the log of edges its sink routed."""
    service = MonitoringService(soa=True)
    names = []
    for task, config in soa_differential.population(8, estimator):
        service.add_task(task.name, task, config=config)
        names.append(task.name)
    names += soa_differential.register_kinds(
        service, estimator="chebyshev" if estimator == "mixed"
        else estimator)
    service.attach_telemetry(DecisionTrace(capacity=1 << 20))
    edges = []
    if sink:
        service.set_trigger_sink(edges.append)
    rows = np.asarray([service.soa_row_for(name) for name in names],
                      dtype=np.int64)
    return service, names, rows, edges


@given(estimator=st.sampled_from(("chebyshev", "gaussian", "mixed")),
       sink=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       frames=st.lists(
           st.tuples(st.integers(min_value=1, max_value=60),   # offers
                     st.integers(min_value=1, max_value=4),    # steps
                     st.lists(st.floats(min_value=0.0, max_value=1.0),
                              max_size=5)),                    # cut points
           min_size=3, max_size=20))
@settings(max_examples=30, deadline=None)
def test_offer_columns_does_not_depend_on_where_a_batch_is_split(
        soa_differential, estimator, sink, seed, frames):
    whole, names, rows, whole_edges = _every_kind(soa_differential,
                                                  estimator, sink)
    split, _, split_rows, split_edges = _every_kind(soa_differential,
                                                    estimator, sink)
    assert (rows >= 0).all() and (rows == split_rows).all()
    rng = np.random.default_rng(seed)
    step = 0
    for offers, span, cuts in frames:
        idx = rng.integers(0, len(names), offers)
        steps = step + np.sort(rng.integers(0, span, offers))
        step += span
        values = np.asarray([
            soa_differential.value_for(rng, names[i], int(i), int(s))
            for i, s in zip(idx, steps)])
        got = whole.offer_columns(rows[idx], steps, values,
                                  [names[i] for i in idx])
        bounds = sorted({0, offers, *(int(c * offers) for c in cuts)})
        parts = [split.offer_columns(rows[idx[lo:hi]], steps[lo:hi],
                                     values[lo:hi],
                                     [names[i] for i in idx[lo:hi]])
                 for lo, hi in zip(bounds, bounds[1:])]
        assert got[:3] == tuple(sum(part[k] for part in parts)
                                for k in range(3))
        assert sorted(got[3].tolist()) == sorted(
            np.concatenate([part[3] for part in parts]).tolist())
    soa_differential.same_state(whole, split)
    assert whole_edges == split_edges


@contextlib.contextmanager
def _crossover(rows):
    """``_NARROW_TICK_ROWS`` set to ``rows`` for one call: 0 ticks every
    batch run by run, a huge value regroups every batch by the argsort
    (and, either way, moves the row-by-row crossover with it)."""
    natural = soa_mod._NARROW_TICK_ROWS
    soa_mod._NARROW_TICK_ROWS = rows
    try:
        yield
    finally:
        soa_mod._NARROW_TICK_ROWS = natural


@given(estimator=st.sampled_from(("chebyshev", "gaussian", "mixed")),
       sink=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       frames=st.lists(
           st.tuples(st.integers(min_value=1, max_value=5),    # steps
                     st.floats(min_value=0.0, max_value=0.7),  # left out
                     st.sampled_from(("rows", "rows", "shuffled",
                                      "task-major"))),         # order
           min_size=3, max_size=16))
@settings(max_examples=30, deadline=None)
def test_the_tick_split_does_not_show(soa_differential, estimator, sink,
                                      seed, frames):
    kinds_estimator = "chebyshev" if estimator == "mixed" else estimator
    pair = soa_differential(
        soa_differential.population(8, estimator),
        register_more=lambda service: soa_differential.register_kinds(
            service, estimator=kinds_estimator), sink=sink)
    forced = [_every_kind(soa_differential, estimator, sink)
              for _ in range(2)]
    names, rows = pair.names, pair.rows
    for _service, forced_names, forced_rows, _edges in forced:
        assert forced_names == names and (forced_rows == rows).all()
    by_row = np.argsort(rows)
    rng = np.random.default_rng(seed)
    step = 0
    for span, left_out, order in frames:
        keep = rng.random((span, len(names))) >= left_out
        at, pos = np.nonzero(keep)            # step-major, row-minor
        if order == "shuffled":               # within each step
            mix = rng.permutation(len(at))
            mix = mix[np.argsort(at[mix], kind="stable")]
            at, pos = at[mix], pos[mix]
        elif order == "task-major":
            at, pos = (col.T[keep.T] for col in np.indices(keep.shape))
        idx = by_row[pos]
        steps = step + at
        step += span
        if not len(idx):
            continue
        values = [pair.draw(rng, int(i), int(s))
                  for i, s in zip(idx, steps)]
        pair.offer(idx.tolist(), steps.tolist(), values)
        for (service, *_), crossover in zip(forced, (0, 10 ** 9)):
            with _crossover(crossover):
                service.offer_columns(rows[idx], steps, np.asarray(values),
                                      [names[i] for i in idx])
    (by_runs, _, _, run_edges), (by_sort, _, _, sort_edges) = forced
    for service in (by_runs, by_sort):
        assert (state_fingerprint(service.snapshot())
                == state_fingerprint(pair.vector.snapshot()))
    pair.check()
    soa_differential.same_state(by_runs, by_sort)
    assert run_edges == sort_edges == pair.edges.get(id(pair.vector), [])


@given(estimator=st.sampled_from(("chebyshev", "gaussian", "mixed")),
       stats_restart=st.sampled_from((5, 9)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       runs=st.lists(
           st.tuples(st.integers(min_value=0, max_value=TASKS - CROSSOVER),
                     st.integers(min_value=CROSSOVER, max_value=TASKS),
                     st.sampled_from((None, None, "step", "delta")),
                     st.booleans()),                   # flip a guard
           min_size=4, max_size=24))
@settings(max_examples=30, deadline=None)
def test_a_contiguous_run_ticks_as_the_scalar_service(
        soa_differential, estimator, stats_restart, seed, runs):
    """Whole runs ``lo..hi`` of rows, every one due, so that every vector
    tick reaches the columns through a slice: equal to the scalar oracle
    column for column, with rows on their first offer, rows crossing
    their restart limit into stale serving, floored (disarmed-guard)
    rows, and now and then a row inside the run whose step does not
    increase (a just-armed guard offered at its last step) or whose
    delta overflows to infinity."""
    pair = soa_differential(soa_differential.population(
        TASKS, estimator, stats_restart=stats_restart))
    assert (pair.rows == np.arange(TASKS)).all()
    guarded = range(0, TASKS, 4)
    for service in (pair.scalar, pair.vector):
        for i in guarded:
            service.add_remote_trigger(pair.names[i], "elsewhere", 95.0,
                                       suspend_interval=3)
            service.set_trigger_armed(pair.names[i], False)
    engine = pair.vector.soa_engine
    sliced = []
    columns_at = soa_mod._columns_at
    soa_mod._columns_at = lambda rows: (
        sliced.append(isinstance(index := columns_at(rows), slice)) or index)
    try:
        _contiguous_runs(pair, engine, guarded, seed, runs)
    finally:
        soa_mod._columns_at = columns_at
    pair.check()
    assert sliced and all(sliced)


def _contiguous_runs(pair, engine, guarded, seed, runs):
    rng = np.random.default_rng(seed)
    step = 0
    for lo, width, poison, flip in runs:
        step += 7                          # > max_interval: all due
        idx = list(range(lo, min(lo + width, TASKS)))
        steps = [step] * len(idx)
        # Finite: run_columns would refuse a NaN, and cut the run there.
        values = [50.0 if not np.isfinite(value) else value
                  for value in (pair.value(rng, i, step) for i in idx)]
        seen = [at for at, i in enumerate(idx) if engine.has_last[i]]
        if flip:
            i = int(rng.choice(guarded))
            for service in (pair.scalar, pair.vector):
                service.set_trigger_armed(
                    pair.names[i], not service.trigger_status(
                        pair.names[i])["armed"])
        if poison == "step":
            at = next((at for at in seen if idx[at] % 4 == 0), None)
            if at is not None:             # armed: due, at its last step
                for service in (pair.scalar, pair.vector):
                    service.set_trigger_armed(pair.names[idx[at]], False)
                    service.set_trigger_armed(pair.names[idx[at]], True)
                steps[at] = int(engine.last_time[idx[at]])
        elif poison == "delta" and seen:
            at = seen[int(rng.integers(len(seen)))]
            last = float(engine.last_value[idx[at]])
            # Oriented values of opposite sign and huge: v - last = inf.
            target = 1e308 if abs(last) < 1e307 or last < 0 else -1e308
            values[at] = target * float(engine.sign[idx[at]])
        pair.offer(idx, steps, values)


alert_frames = st.lists(
    st.tuples(st.integers(min_value=1, max_value=60),    # offers
              st.integers(min_value=1, max_value=4),     # steps spanned
              st.sampled_from(("columns", "columns", "by-name", "offer")),
              st.booleans()),                            # a step goes back
    min_size=2, max_size=14)


def _feed(pair, rng, frames, step):
    """Drive ``frames`` into both services of ``pair`` from ``step`` on:
    rows repeat within a frame, steps repeat and now and then decrease,
    ``value_for`` throws in NaNs and infinities, and a frame goes as one
    column batch or offer by offer, by name."""
    for offers, span, mode, back in frames:
        idx = rng.integers(0, len(pair.names), offers)
        steps = step + np.sort(rng.integers(0, span, offers))
        step += span
        if back:
            steps[int(rng.integers(offers))] -= 3
        values = [pair.draw(rng, int(i), int(s))
                  for i, s in zip(idx, steps)]
        if mode == "columns":
            pair.offer(idx.tolist(), steps.tolist(), values)
        else:
            live = [k for k, i in enumerate(idx.tolist())
                    if pair.names[i] in pair.scalar.task_names]
            pair.offer_by_name(idx[live].tolist(), steps[live].tolist(),
                               [values[k] for k in live],
                               fast=mode == "by-name")
    return step


@given(estimator=st.sampled_from(("chebyshev", "gaussian")),
       sink=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       before=alert_frames, between=alert_frames, after=alert_frames,
       fresh_rows=st.booleans())
@settings(max_examples=30, deadline=None)
def test_alert_history_is_the_scalar_oracles(
        soa_differential, estimator, sink, seed, before, between, after,
        fresh_rows):
    specs = soa_differential.population(8, estimator)
    pair = soa_differential(specs, sink=sink, kinds=estimator)
    rng = np.random.default_rng(seed)
    step = _feed(pair, rng, before, 0)
    # Churn: one plain task leaves for good, two (one with a callback,
    # one without) leave and come back under their names — on new rows,
    # which the batches reach through the stale ones (by name) or not.
    gone = [pair.vector.soa_row_for(name) for name in pair.names[:3]]
    for side in ("scalar", "vector"):
        service = getattr(pair, side)
        for name in pair.names[:3]:
            service.remove_task(name)
        for (task, config), on_alert in zip(
                specs[:2], (pair.callback(side, pair.names[0]), None)):
            service.add_task(task.name, task, config=config,
                             on_alert=on_alert)
    assert not np.isin(pair.vector._alert_log.rows, gone).any()
    if fresh_rows:
        pair.rows[:2] = [pair.vector.soa_row_for(name)
                         for name in pair.names[:2]]
    step = _feed(pair, rng, between, step)
    pair.check()

    other = pair.cross_restored()
    snapshots = {state_fingerprint(service.snapshot())
                 for service in (pair.scalar, pair.vector, other.scalar,
                                 other.vector)}
    assert len(snapshots) == 1
    other.check()
    state = rng.bit_generator.state
    _feed(pair, rng, after, step)
    rng.bit_generator.state = state
    _feed(other, rng, after, step)
    pair.check()
    other.check()
    assert (state_fingerprint(pair.vector.snapshot())
            == state_fingerprint(other.vector.snapshot()))


@given(estimator=st.sampled_from(("chebyshev", "gaussian")),
       sink=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       before=alert_frames, between=alert_frames, after=alert_frames)
@settings(max_examples=25, deadline=None)
def test_a_snapshot_is_the_same_columns_whoever_writes_or_reads_it(
        soa_differential, estimator, sink, seed, before, between, after):
    specs = soa_differential.population(8, estimator)
    pair = soa_differential(specs, sink=sink, kinds=estimator)
    rng = np.random.default_rng(seed)
    step = _feed(pair, rng, before, 0)
    # Two tasks leave and come back under their names, so registration
    # order is no longer the harness's: one is reached through its stale
    # row from here on (by name), one through its fresh row.
    for service in (pair.scalar, pair.vector):
        for task, config in specs[:2]:
            service.remove_task(task.name)
            service.add_task(task.name, task, config=config)
    assert pair.vector.task_names[-2:] == pair.names[:2]
    pair.rows[1] = pair.vector.soa_row_for(pair.names[1])
    step = _feed(pair, rng, between, step)

    written = [state_fingerprint(service.snapshot())
               for service in (pair.scalar, pair.vector)]
    assert written[0] == written[1]                     # byte-equal
    assert pair.scalar.snapshot()["names"] == pair.vector.task_names
    # Either writer's document, restored either way, is written back as
    # it was read ...
    restored = [pair.cross_restored(), pair.cross_restored(crossed=False)]
    for other in restored:
        for service in (other.scalar, other.vector):
            assert state_fingerprint(service.snapshot()) == written[0]
        other.check()
    # ... and all six services carry on decision for decision.
    state = rng.bit_generator.state
    for harness in (pair, *restored):
        rng.bit_generator.state = state
        _feed(harness, rng, after, step)
        harness.check()
    assert len({state_fingerprint(harness.vector.snapshot())
                for harness in (pair, *restored)}) == 1


# Finite values at and near the edge of the float range, and ordinary
# ones: deltas between them overflow the Welford variance, and windowed
# sums overflow themselves.
extremes = st.sampled_from([0.0, -0.0, 1.0, 95.0, -95.0, 1e154, -1e154,
                            1e300, -1e300, 1.7e308, -1.7e308,
                            1.7976931348623157e308, 5e-324])


@given(frames=st.lists(st.tuples(extremes, extremes, st.integers(1, 34)),
                       min_size=2, max_size=24),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_extreme_finite_streams_are_one_rule(frames, seed, soa_differential):
    """Offers whose update would leave a row's variance non-finite
    restart its statistics, and non-finite deltas are refused untouched,
    on either representation alike, in narrow and wide ticks: the two
    services stay equal, their statistics, bounds and coordination
    products finite, and each one's snapshot restores onto the other.
    Quantile and entropy tasks take the same values into their sketches
    and symbol windows."""
    def more(service):
        config = AdaptationConfig(patience=2, min_samples=4)
        for kind in AggregateKind:
            service.add_task(f"w-{kind.value}", TaskSpec(
                threshold=90.0, error_allowance=0.05, max_interval=6,
                name=f"w-{kind.value}"), window=3, window_kind=kind,
                config=config)
        service.add_quantile_task("q", threshold=90.0, quantile=0.9,
                                  error_allowance=0.05, max_interval=6,
                                  sketch_window=4, config=config)
        service.add_entropy_task("e", threshold=0.5, entropy_window=4,
                                 error_allowance=0.05, max_interval=6,
                                 config=config)
        return [f"w-{kind.value}" for kind in AggregateKind] + ["q", "e"]
    pair = soa_differential(soa_differential.population(30, "mixed"),
                            register_more=more)
    rng = np.random.default_rng(seed)
    for step, (even, odd, width) in enumerate(frames):
        # Distinct tasks: a wide frame is one wide, vectorised tick.
        tasks = rng.choice(len(pair.names), width, replace=False).tolist()
        pair.offer(tasks, [step] * width,
                   [odd if task % 2 else even for task in tasks])
    pair.check()
    sampler = pair.vector.snapshot()["sampler"]
    for key in ("mean", "var", "stale_mean", "stale_var", "coord_err_mant"):
        assert np.isfinite(sampler[key]).all(), key
    pair.cross_restored().check()
