"""Hypothesis property: a worker host's pass is its shards, one after
another.

A :class:`~repro.cluster.hosting.WorkerHost` holds every hosted shard's
rows in one engine and drains the shards' queues a pass at a time: the
head batch of every non-empty queue, in shard order, applied as one batch
(:func:`~repro.runtime.shard.apply_pass`). Only the engine's ticks are
shared, so a pass must give what applying its batches one shard after
another in shard order gives — here, two hosts registered alike, one fed
by passes, the other by one :meth:`ShardWorker.apply_columns` per batch.

Hypothesis draws the fleet — 1 to 6 shards; plain, windowed, quantile
and entropy tasks; trigger plans whose ends share a shard or sit on two
shards of the host, watched at a level the stream crosses — and the
frames: step-major, shuffled, repeated offers, stale and unknown rows,
non-finite values, shards left out of a frame, tasks removed and
re-registered between frames. After every frame each shard's
fingerprint, alert history and ledger, both engines' columns, the
interval histogram and the edge outbox must be equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hosting import WorkerHost
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.shard import ColumnBatch, apply_pass
from repro.triggers.plan import TriggerPlan

SHAPES = ("step-major", "shuffled", "repeated", "stale", "poison")
KINDS = ("plain", "windowed", "quantile", "entropy")
LEDGER = ("updates_applied", "updates_consumed", "updates_rejected",
          "alerts_fired")


def _register(host: WorkerHost, name: str, kind: str, shard: int,
              window: int, window_kind: AggregateKind) -> None:
    service = host.shards[shard].service
    if kind == "quantile":
        service.add_quantile_task(name, threshold=62.0, quantile=0.8,
                                  sketch_window=16, max_interval=6)
    elif kind == "entropy":
        service.add_entropy_task(name, threshold=1.5, entropy_window=12,
                                 bin_width=4.0, max_interval=6)
    else:
        service.add_task(name, TaskSpec(threshold=64.0, error_allowance=0.05,
                                        max_interval=8),
                         window=window if kind == "windowed" else 1,
                         window_kind=window_kind)


class _Fleet:
    """The draw: who lives where, which plans, in registration order."""

    def __init__(self, rng: np.random.Generator, shards: int, tasks: int,
                 plans: int):
        self.shards = shards
        self.names = [f"t{i:02d}" for i in range(tasks)]
        self.kind = {name: KINDS[int(k)] for name, k in zip(
            self.names, rng.integers(0, len(KINDS), tasks))}
        self.shard = {name: int(s) for name, s in zip(
            self.names, rng.integers(0, shards, tasks))}
        self.window = {name: int(w) for name, w in zip(
            self.names, rng.choice([2, 3, 5], tasks))}
        kinds = list(AggregateKind)
        self.window_kind = {name: kinds[int(k)] for name, k in zip(
            self.names, rng.integers(0, len(kinds), tasks))}
        # Each target guarded once; a trigger watched at one level.
        order = [str(name) for name in rng.permutation(self.names)]
        self.plans = []
        level = {}
        for target, trigger in zip(order[:plans], order[plans:2 * plans]):
            level.setdefault(trigger, float(rng.choice([52.0, 55.0, 58.0])))
            self.plans.append(TriggerPlan(target, trigger, level[trigger],
                                          suspend_interval=4,
                                          hysteresis=0.0, min_hold=0))

    def build(self) -> WorkerHost:
        host = WorkerHost("w0", queue_depth=4)
        for sid in range(self.shards):
            host.install_shard(sid)
        for name in self.names:
            self.register(host, name)
        for plan in self.plans:
            for sid in sorted({self.shard[plan.target],
                               self.shard[plan.trigger]}):
                host.shards[sid].service.install_trigger_plan(plan)
        return host

    def register(self, host: WorkerHost, name: str) -> None:
        _register(host, name, self.kind[name], self.shard[name],
                  self.window[name], self.window_kind[name])


def _frame(rng: np.random.Generator, fleet: _Fleet, host: WorkerHost,
           first: int, shape: str, gone: dict[str, int],
           ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, list]]:
    """Each offered shard's batch of three steps from ``first``."""
    frame = {}
    for sid in range(fleet.shards):
        if fleet.shards > 1 and rng.random() < 0.2:
            continue                             # this shard sits it out
        service = host.shards[sid].service
        names = [n for n in fleet.names if fleet.shard[n] == sid
                 and n in service.task_names]
        offers = [(name, step) for step in range(first, first + 3)
                  for name in names]
        if shape == "shuffled":
            offers = [offers[i] for i in rng.permutation(len(offers))]
        elif shape == "repeated" and offers:
            again = rng.integers(0, len(offers), 1 + len(offers) // 4)
            offers += [offers[int(i)] for i in again]
        rows = [service.soa_row_for(name) for name, _ in offers]
        names_of = [name for name, _ in offers]
        if shape == "stale":
            for name, row in gone.items():
                if fleet.shard[name] == sid:
                    offers.append((name, first + 1))
                    rows.append(row)             # a retired row
                    names_of.append(name)
            offers.append(("ghost", first))
            rows.append(-1)                      # an unknown name
            names_of.append("ghost")
            if rows[:1] and rows[0] >= 0:
                rows[0] = -1                     # resolve by name
        steps = np.asarray([step for _, step in offers], dtype=np.int64)
        values = rng.normal(56.0, 8.0, len(offers))
        if shape == "poison" and len(values):
            values[rng.integers(0, len(values), 2)] = [np.nan, np.inf]
        if len(offers):
            frame[sid] = (np.asarray(rows, dtype=np.int64), steps, values,
                          names_of)
    return frame


def _batch(cols: tuple) -> ColumnBatch:
    rows, steps, values, names = cols
    return ColumnBatch(rows.copy(), steps.copy(), values.copy(), list(names))


def _same(pass_host: WorkerHost, reference: WorkerHost) -> None:
    for sid, worker in reference.shards.items():
        mine = pass_host.shards[sid]
        service, theirs = mine.service, worker.service
        assert (state_fingerprint(service.snapshot())
                == state_fingerprint(theirs.snapshot())), sid
        assert ({name: service.alerts(name) for name in service.task_names}
                == {name: theirs.alerts(name)
                    for name in theirs.task_names}), sid
        ours, refs = mine.stats(), worker.stats()
        assert [ours[key] for key in LEDGER] == [refs[key]
                                                  for key in LEDGER], sid
    engine, other = pass_host.engine, reference.engine
    assert len(engine) == len(other)
    for column in engine._COLUMNS:
        assert np.array_equal(getattr(engine, column)[:len(engine)],
                              getattr(other, column)[:len(other)]), column
    assert (pass_host._interval_hist.get()
            == reference._interval_hist.get())
    assert list(pass_host._outbox) == list(reference._outbox)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       shards=st.integers(min_value=1, max_value=6),
       tasks=st.integers(min_value=6, max_value=30),
       plans=st.integers(min_value=0, max_value=3),
       shapes=st.lists(st.sampled_from(SHAPES), min_size=3, max_size=8))
@settings(max_examples=60, deadline=None)
def test_a_pass_is_its_shards_one_after_another(seed, shards, tasks, plans,
                                                shapes):
    rng = np.random.default_rng(seed)
    fleet = _Fleet(rng, shards, tasks, plans)
    pass_host, reference = fleet.build(), fleet.build()
    gone: dict[str, int] = {}
    for at, shape in enumerate(shapes):
        if at % 3 == 2:
            # Churn: a removed task's row goes stale; one comes back on
            # a fresh row, its stale one still about.
            name = fleet.names[int(rng.integers(0, len(fleet.names)))]
            service = pass_host.shards[fleet.shard[name]].service
            if name in service.task_names:
                gone[name] = service.soa_row_for(name)
                for host in (pass_host, reference):
                    host.shards[fleet.shard[name]].service.remove_task(name)
            else:
                for host in (pass_host, reference):
                    fleet.register(host, name)
        frame = _frame(rng, fleet, pass_host, 3 * at, shape, gone)
        for sid in sorted(frame):
            assert pass_host.shards[sid].try_enqueue_columns(
                _batch(frame[sid]))
            reference.shards[sid].apply_columns(_batch(frame[sid]))
        assert apply_pass(pass_host._members,
                          pass_host._interval_hist) == len(frame)
        _same(pass_host, reference)
