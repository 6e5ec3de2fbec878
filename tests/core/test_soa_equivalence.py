"""Bit-equivalence of the SoA sampler engine against the scalar sampler.

Formalises the DESIGN.md S31 contract at test scale: a service running
columnar (``soa=True``, :meth:`MonitoringService.offer_columns`) must end
in exactly the state — snapshots, alert logs, counters — of a service
stepping the same stream through the scalar
:class:`ViolationLikelihoodSampler` path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import soa as soa_mod
from repro.core.adaptation import (AdaptationConfig,
                                   ViolationLikelihoodSampler)
from repro.core.soa import STEP_MAX, STEP_MIN
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.runtime.checkpoint import state_fingerprint
from repro.service import (SNAPSHOT_VERSION, MonitoringService,
                           snapshot_task_names)
from repro.triggers.plan import TriggerPlan

from snapshot_fixtures import answers, continuation, drive, history, read_pin

ESTIMATORS = ("chebyshev", "gaussian")
POINTS = 24_000
TASKS = 64
CROSSOVER = soa_mod._NARROW_TICK_ROWS


def json_snapshot(service):
    """Serialised, so NaN state compares equal to itself."""
    return json.dumps(service.snapshot(), sort_keys=True)


class TestStreamEquivalence:
    """The default configuration on a round-robin stream of heavy noise
    under the threshold, so growth, violations and resets all occur."""

    @staticmethod
    def _drive(harness, estimator, points, tasks, batch):
        pair = harness([(TaskSpec(threshold=100.0, error_allowance=0.01,
                                  max_interval=10, name=f"soa-{i:04d}"),
                         AdaptationConfig(estimator=estimator))
                        for i in range(tasks)])
        values = np.random.default_rng(7).normal(80.0, 18.0, points)
        position = np.arange(points)
        for lo in range(0, points, batch):
            cut = slice(lo, lo + batch)
            pair.offer((position[cut] % tasks).tolist(),
                       (position[cut] // tasks).tolist(),
                       values[cut].tolist())
        pair.check()
        return pair

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_round_robin_stream_is_bit_identical(self, estimator,
                                                 soa_differential):
        pair = self._drive(soa_differential, estimator, POINTS, TASKS, 1024)
        # The stream must actually exercise alerting for the check to
        # mean anything.
        assert sum(len(pair.vector.alerts(n)) for n in pair.names) > 0

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_uneven_batches_do_not_change_state(self, estimator,
                                                soa_differential):
        # Batch boundaries are an implementation detail: odd-sized
        # batches land on the same final state as the reference split.
        even = self._drive(soa_differential, estimator, 6_000, 16, 512)
        odd = self._drive(soa_differential, estimator, 6_000, 16, 777)
        soa_differential.same_state(even.vector, odd.vector)

    @pytest.mark.parametrize("batch", [CROSSOVER - 1, 4096],
                             ids=["narrow", "wide"])
    def test_default_restart_period_is_crossed_on_rows(self, batch,
                                                       soa_differential):
        # stats_restart is 1000 samples unless configured, and every
        # other case configures it small or stops short of it. Hot tasks
        # cross it in ~1300 steps, either side of the tick crossover.
        tasks = 2 * CROSSOVER
        pair = self._drive(soa_differential, ESTIMATORS[0], 1_300 * tasks,
                           tasks, batch)
        assert pair.vector.soa_engine.restarts[pair.rows].min() >= 1


def _service(estimator="chebyshev", soa=False, tasks=4):
    service = MonitoringService(AdaptationConfig(estimator=estimator),
                                soa=soa)
    for i in range(tasks):
        name = f"mix-{i}"
        service.add_task(name, TaskSpec(threshold=100.0,
                                        error_allowance=0.02,
                                        max_interval=8, name=name))
    return service


class TestMixedPaths:
    def test_interleaved_offer_fast_and_offer_columns(self,
                                                      soa_differential):
        # One service fed through both entry points must match a scalar
        # service fed the identical stream: offer_fast on an SoA-backed
        # task routes into the engine row, so the two are one state.
        rng = np.random.default_rng(11)
        values = rng.normal(85.0, 12.0, 400)
        scalar = _service(soa=False)
        mixed = _service(soa=True)
        rows = np.asarray([mixed.soa_row_for(f"mix-{i}")
                           for i in range(4)], dtype=np.int64)
        assert (rows >= 0).all()
        for lo in range(0, 400, 40):
            chunk = values[lo:lo + 40]
            step0 = lo // 4
            for j, value in enumerate(chunk[:20].tolist()):
                scalar.offer_fast(f"mix-{j % 4}", value, step0 + j // 4)
                mixed.offer_fast(f"mix-{j % 4}", value, step0 + j // 4)
            tail = chunk[20:]
            positions = np.arange(20, 40, dtype=np.int64)
            steps = step0 + positions // 4
            for j, value in enumerate(tail.tolist()):
                scalar.offer_fast(f"mix-{(20 + j) % 4}", value,
                                  int(steps[j]))
            applied, _, rejected, _ = mixed.offer_columns(
                rows[positions % 4], steps, tail, names=None)
            assert applied == 20 and rejected == 0
        assert scalar.snapshot() == mixed.snapshot()
        assert (soa_differential.alert_log(scalar)
                == soa_differential.alert_log(mixed))
        assert (soa_differential.task_counters(scalar)
                == soa_differential.task_counters(mixed))

    def test_offer_columns_requires_soa_service(self):
        with pytest.raises(ConfigurationError, match="SoA"):
            _service(soa=False).offer_columns([0], [0], [1.0])

    def test_empty_batch_is_a_no_op_with_or_without_watchers(self):
        service = _service(soa=True)
        assert service.offer_columns([], [], [])[:3] == (0, 0, 0)
        service.add_trigger_watch("mix-0", 90.0)
        applied, consumed, rejected, intervals = service.offer_columns(
            [], [], [], names=[])
        assert (applied, consumed, rejected, len(intervals)) == (0, 0, 0, 0)

    def test_negative_rows_fall_back_by_name(self):
        service = _service(soa=True)
        applied, _, rejected, _ = service.offer_columns(
            [-1, -1], [0, 0], [50.0, 60.0],
            names=["mix-0", "no-such-task"])
        assert applied == 1
        assert rejected == 1
        assert service.observations("mix-0") == 1


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_snapshot_restore_continuation_stays_identical(
            self, estimator, soa_differential):
        # Run half the stream, snapshot the SoA service, restore it both
        # ways, finish the stream on all three — every continuation must
        # land on the same final state. This is the "checkpoints stay
        # v2-compatible" half of the S31 contract.
        rng = np.random.default_rng(23)
        values = rng.normal(82.0, 15.0, 2_000)
        tasks = 8
        scalar = _service(estimator, soa=False, tasks=tasks)
        vector = _service(estimator, soa=True, tasks=tasks)

        def drive(service, lo, hi, columnar):
            if columnar:
                rows = np.asarray(
                    [service.soa_row_for(f"mix-{i}") for i in range(tasks)],
                    dtype=np.int64)
                positions = np.arange(lo, hi, dtype=np.int64)
                service.offer_columns(rows[positions % tasks],
                                      positions // tasks,
                                      values[lo:hi], names=None)
            else:
                for i, value in enumerate(values[lo:hi].tolist(), lo):
                    service.offer_fast(f"mix-{i % tasks}", value, i // tasks)

        drive(scalar, 0, 1_000, columnar=False)
        drive(vector, 0, 1_000, columnar=True)
        snap = vector.snapshot()
        assert snap == scalar.snapshot()

        restored_soa = MonitoringService.restore(snap, soa=True)
        restored_scalar = MonitoringService.restore(snap, soa=False)
        drive(scalar, 1_000, 2_000, columnar=False)
        drive(vector, 1_000, 2_000, columnar=True)
        drive(restored_soa, 1_000, 2_000, columnar=True)
        drive(restored_scalar, 1_000, 2_000, columnar=False)

        final = scalar.snapshot()
        assert vector.snapshot() == final
        assert restored_soa.snapshot() == final
        assert restored_scalar.snapshot() == final
        assert (soa_differential.task_counters(restored_soa)
                == soa_differential.task_counters(restored_scalar)
                == soa_differential.task_counters(scalar))


class TestSnapshotPin:
    """The version-3 format pin (who wrote it, from what stream, and what
    it recorded: ``snapshot_fixtures``): a snapshot of every kind of task
    after churn, with a guard disarmed and counting, another armed and a
    watcher inside its hold. It restores onto rows and onto the scalar
    oracle to its recorded fingerprint and answers, and continues to its
    recorded fingerprint."""

    def test_restores_onto_rows_and_continues(self, soa_differential):
        pin = read_pin()
        snapshot, recorded = pin["snapshot"], json.dumps(
            pin["answers"], sort_keys=True)
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert state_fingerprint(snapshot) == pin["fingerprint"]
        names = snapshot_task_names(snapshot)
        assert {name.rsplit("-", 1)[0] for name in names} >= set(
            soa_differential.KINDS)
        for soa in (True, False):
            service = MonitoringService.restore(snapshot, soa=soa)
            assert (service.soa_engine is not None) == soa
            assert state_fingerprint(service.snapshot()) == pin["fingerprint"]
            assert answers(service) == recorded
            guards = [service.trigger_status(name) for name in names
                      if name.startswith("guarded")]
            assert any(not g["armed"] and g["suspensions"] for g in guards)
            assert any(g["armed"] for g in guards)
            assert drive(service, continuation(names),
                         sink=True) == pin["continued"]

    def test_the_fixture_stream_still_reaches_its_state(
            self, soa_differential):
        """The stream behind the pin, run today on both representations,
        reaches the state it recorded on every task: the pin is a state
        this code reaches, not only one it can load."""
        pair = history(soa_differential)
        pin = read_pin()
        recorded = json.dumps(pin["answers"], sort_keys=True)
        for service in (pair.scalar, pair.vector):
            assert state_fingerprint(service.snapshot()) == pin["fingerprint"]
            assert answers(service) == recorded


class TestSnapshotColumns:
    """The columnar snapshot at its edges; that both representations
    write the same document over any stream is the differential
    harness's (``same_state``) and the properties'."""

    def test_rows_allocated_in_bulk_are_rows_allocated_one_by_one(
            self, soa_differential):
        specs = soa_differential.population(300, "mixed",
                                            stats_restart=None)
        one_by_one, bulk = soa_mod.SoaSamplerEngine(), (
            soa_mod.SoaSamplerEngine())
        rows = [one_by_one.add_task(task, config) for task, config in specs]
        assert bulk.add_tasks(*zip(*specs)) == range(300)
        assert bulk.add_tasks([], []) == range(300, 300)
        assert rows == list(range(300)) and len(bulk) == len(one_by_one)
        for column in soa_mod.SoaSamplerEngine._COLUMNS:
            assert (getattr(bulk, column).tolist()
                    == getattr(one_by_one, column).tolist()), column

    def test_what_a_lowered_flag_covers_is_written_as_zero(self):
        """The canonical-absent rule: whatever a row holds under a
        lowered ``has_last`` / ``has_stale`` never reaches a snapshot."""
        service = _service(soa=True, tasks=3)
        service.offer("mix-1", 50.0, 0)
        clean = json_snapshot(service)
        engine = service.soa_engine
        assert not engine.has_last[0] and not engine.has_stale[:3].any()
        engine.last_value[0], engine.last_time[0] = 7.5, 99
        engine.stale_mean[:3], engine.stale_var[:3] = -1.0, 4.0
        assert json_snapshot(service) == clean
        sampler = service.snapshot()["sampler"]
        assert sampler["has_last"] == [False, True, False]
        assert sampler["last_value"] == [0.0, 50.0, 0.0]
        assert sampler["last_time"] == [0, 0, 0]
        assert engine.row_state_dict(0)["last_value"] is None
        assert engine.row_state_dict(1)["last_value"] == 50.0
        assert engine.row_state_dict(1)["stats"]["stale_mean"] is None

    def test_equal_configs_are_written_once(self):
        service = MonitoringService(AdaptationConfig(patience=4), soa=True)
        custom = AdaptationConfig(estimator="gaussian")
        for i in range(6):
            service.add_task(f"t{i}", TaskSpec(100.0, 0.01, name=f"t{i}"),
                             config=(None, custom,
                                     AdaptationConfig(estimator="gaussian"),
                                     )[i % 3])
        snapshot = service.snapshot()
        assert snapshot["task"]["adaptation"] == [0, 1, 1, 0, 1, 1]
        assert [entry["estimator"] for entry in snapshot["adaptations"]] == [
            "chebyshev", "gaussian"]
        for soa in (False, True):
            restored = MonitoringService.restore(snapshot, soa=soa)
            assert restored.snapshot() == snapshot
            assert restored._state("t4").config == custom

    def test_task_names_of_either_version(self):
        """Of a snapshot, or of the ``{}`` a shard entry without one
        stands for."""
        service = _service(soa=True, tasks=3)
        assert snapshot_task_names(service.snapshot()) == [
            "mix-0", "mix-1", "mix-2"]
        assert snapshot_task_names({}) == []


class TestAlertLog:
    """The engine service's columnar alert history, at its edges; the
    stream-level agreement with the scalar oracle is the differential
    harness's (``alert_log`` / ``alert_count`` / callbacks in ``check``)."""

    @staticmethod
    def _hot(service, names, steps):
        rows = [service.soa_row_for(name) for name in names]
        for step in steps:
            service.offer_columns(rows, [step] * len(rows),
                                  [150.0] * len(rows), names)

    def test_a_removed_tasks_history_leaves_the_log(self):
        service = _service(soa=True, tasks=3)
        self._hot(service, ["mix-0", "mix-1", "mix-2"], range(4))
        log = service._alert_log
        assert log.size == 12
        kept = service.alerts("mix-0") + service.alerts("mix-2")
        service.remove_task("mix-1")
        assert log.size == 8 and service.soa_row_for("mix-0") == 0
        assert service.alerts("mix-0") + service.alerts("mix-2") == kept
        # Re-registered under its name, the task starts with no history.
        service.add_task("mix-1", TaskSpec(threshold=100.0,
                                           error_allowance=0.02,
                                           name="mix-1"))
        assert service.alert_count("mix-1") == 0
        assert service.alerts("mix-1") == []
        self._hot(service, ["mix-1"], [9])
        assert [a.time_index for a in service.alerts("mix-1")] == [9]
        snapshot = service.snapshot()
        assert snapshot["names"][2] == "mix-1"
        assert snapshot["task"]["alerts"] == [4, 4, 1]
        assert [column[-1] for column in snapshot["alerts"].values()] == [
            9, 150.0, 100.0]

    def test_the_count_sink_sees_each_batch_before_any_callback(self):
        order = []
        service = MonitoringService(soa=True)
        for name in ("a", "b"):
            service.add_task(name, TaskSpec(100.0, 0.01, name=name),
                             on_alert=lambda alert, name=name: order.append(
                                 (name, service.alert_count(name))))
        service.set_alert_count_sink(order.append)
        self._hot(service, ["a", "b"], range(2))
        service.offer("a", 150.0, 5)
        assert order == [2, ("a", 1), ("b", 1), 2, ("a", 2), ("b", 2),
                         1, ("a", 3)]
        with pytest.raises(ConfigurationError, match="SoA"):
            MonitoringService().set_alert_count_sink(order.append)


class TestEligibility:
    """On an engine service every task is a row from registration to
    removal and has no scalar sampler; an inactive row is a retired row —
    the ends of a local ``add_trigger`` pair ride the tick like any
    guarded and watched row."""

    @staticmethod
    def _retired(service):
        """The engine rows whose ``active`` flag is down."""
        engine = service.soa_engine
        return set(np.flatnonzero(~engine.active[:len(engine)]).tolist())

    def test_a_local_pair_keeps_its_rows_and_rides_the_tick(
            self, soa_differential, monkeypatch):
        # add_trigger moves no state: both ends keep their rows, live,
        # and behave as on a never-SoA service — in column batches, which
        # never leave the tick for them, as by name.
        rng = np.random.default_rng(5)
        values = rng.normal(90.0, 10.0, 480)
        scalar = _service(soa=False)
        vector = _service(soa=True)
        rows = [vector.soa_row_for(f"mix-{i}") for i in range(4)]
        for service in (scalar, vector):
            service.add_trigger("mix-0", "mix-1", elevation_level=92.0,
                                suspend_interval=4)
        assert [vector.soa_row_for(f"mix-{i}") for i in range(4)] == rows
        assert not self._retired(vector)
        by_name = []
        offer_soa = vector._offer_soa
        monkeypatch.setattr(vector, "_offer_soa", lambda *args: (
            by_name.append(args), offer_soa(*args))[1])
        for lo in range(0, 240, 8):
            for i in range(lo, lo + 8):
                scalar.offer(f"mix-{i % 4}", float(values[i]), i // 4)
            vector.offer_columns(rows * 2, [lo // 4] * 4 + [lo // 4 + 1] * 4,
                                 values[lo:lo + 8])
        assert not by_name
        for i, value in enumerate(values[240:].tolist(), start=240):
            scalar.offer(f"mix-{i % 4}", value, i // 4)
            vector.offer_fast(f"mix-{i % 4}", value, i // 4)
        assert len(by_name) == 240
        assert scalar.snapshot() == vector.snapshot()
        assert (soa_differential.alert_log(scalar)
                == soa_differential.alert_log(vector))
        assert vector.trigger_suspensions("mix-0") > 5

    def test_every_kind_is_a_row_for_life(self, soa_differential):
        service = MonitoringService(AdaptationConfig(), soa=True)
        names = soa_differential.register_kinds(service)
        assert {name.rsplit("-", 1)[0] for name in names} == set(
            soa_differential.KINDS)
        rows = [service.soa_row_for(name) for name in names]
        assert sorted(rows) == list(range(len(names)))
        assert not self._retired(service)
        # Channel wiring, re-installed or changed, explicit arming, a
        # new local pair and its re-target leave every row where it is,
        # and live.
        service.add_trigger_watch("trigger-0", 80.0, min_hold=1)
        service.add_remote_trigger("guarded-0", "trigger-1", 80.0)
        service.add_remote_trigger("entropy-0", "window-max-0", 1.0)
        service.install_trigger_plan(TriggerPlan(
            target="window-min-1", trigger="elsewhere",
            elevation_level=1.0))
        service.set_trigger_armed("guarded-0", False)
        service.set_trigger_armed("guarded-0", True)
        service.add_trigger("quantile-0", "window-sum-1",
                            elevation_level=50.0)
        service.add_trigger("quantile-0", "window-sum-0",
                            elevation_level=50.0)
        assert service.trigger_status("quantile-0")["trigger"] == (
            "window-sum-0")
        # A watch outlives its last guard, as a plan's does.
        assert "watch" in service.trigger_status("window-sum-1")
        assert not self._retired(service)
        assert [service.soa_row_for(name) for name in names] == rows
        assert all(state.sampler is None
                   for state in service._tasks.values())
        # A restore gives every task a row again, pairs included.
        restored = MonitoringService.restore(service.snapshot(), soa=True)
        assert all(restored.soa_row_for(name) >= 0 for name in names)
        assert not self._retired(restored)
        # Removing a task retires its row, and only it; a guard that
        # loses its trigger is dissolved, armed.
        row = service.soa_row_for("window-sum-0")
        service.remove_task("window-sum-0")
        assert self._retired(service) == {row}
        assert service.trigger_status("quantile-0") == {}

    def test_rows_last_from_registration_to_removal(self):
        # Under any sequence of add / trigger / re-target / remove /
        # restore: a row for every task, the same one for life, no
        # scalar sampler, and ``active`` down for exactly the rows of
        # removed tasks.
        rng = np.random.default_rng(31)
        service = MonitoringService(AdaptationConfig(), soa=True)
        made = pairs = 0
        rows: dict[str, int] = {}
        for round_ in range(400):
            names = service.task_names
            roll = rng.random()
            if roll < 0.35 or len(names) < 3:
                service.add_task(f"t-{made}", TaskSpec(
                    threshold=100.0, error_allowance=0.05,
                    name=f"t-{made}"))
                made += 1
            elif roll < 0.7:
                target, trigger = rng.choice(names, 2, replace=False)
                service.add_trigger(str(target), str(trigger),
                                    elevation_level=1.0)
                pairs += 1
            elif roll < 0.9:
                service.remove_task(str(rng.choice(names)))
            else:
                service = MonitoringService.restore(service.snapshot(),
                                                    soa=True)
                rows.clear()
            tasks = service._tasks
            engine = service.soa_engine
            for name, state in tasks.items():
                assert state.soa_row >= 0 and state.sampler is None
                assert rows.setdefault(name, state.soa_row) == state.soa_row
            rows = {name: rows[name] for name in tasks}
            assert len(set(rows.values())) == len(rows)
            assert self._retired(service) == (
                set(range(len(engine))) - set(rows.values())), round_
        assert made > 100 and pairs > 100 and service._guards

    def test_pairs_wire_without_scanning_the_tasks(self):
        # N pairs wire in O(N): add_trigger, re-targets included, never
        # walks the task table.
        class Counting(dict):
            walks = 0

            def _walk(self, how):
                type(self).walks += 1
                return how()

            def values(self):
                return self._walk(super().values)

            def items(self):
                return self._walk(super().items)

            def keys(self):
                return self._walk(super().keys)

            def __iter__(self):
                return self._walk(super().__iter__)

        service = _service(soa=True, tasks=64)
        service._tasks = Counting(service._tasks)
        for i in range(0, 64, 2):
            service.add_trigger(f"mix-{i}", f"mix-{i + 1}",
                                elevation_level=1.0)
        for i in range(0, 60, 2):
            service.add_trigger(f"mix-{i}", f"mix-{i + 3}",
                                elevation_level=1.0)
        assert Counting.walks == 0
        assert sum(map(len, service._guards.values())) == 32

    def test_snapshot_writes_nothing(self, soa_differential):
        # A read is a read: two snapshots in a row leave every TaskState
        # field as it was, and agree.
        pair = soa_differential(soa_differential.population(4, "mixed"),
                                register_more=soa_differential
                                .register_kinds)
        rng = np.random.default_rng(3)
        everyone = list(range(len(pair.names)))
        for step in range(60):
            pair.offer(everyone, [step] * len(everyone),
                       [pair.draw(rng, i, step) for i in everyone])
        service = pair.vector

        def held():
            return {name: {key: repr(value) for key, value
                           in vars(state).items()}
                    for name, state in service._tasks.items()}

        before = held()
        first = json_snapshot(service)
        assert held() == before
        assert json_snapshot(service) == first
        assert held() == before

    def test_guarded_row_index_matches_the_scan_it_replaced(self):
        for soa in (False, True):
            self._index_matches_the_scan(soa)

    @staticmethod
    def _index_matches_the_scan(soa):
        # _watch_cuts used to scan every row of the service per edge for
        # the rows the edge's trigger guards; the index it and
        # _deliver_edge read instead must agree under any sequence of
        # add / guard / re-guard / plan / pair / remove / restore, on the
        # scalar oracle as on rows — and so must the rows' call-backs.
        rng = np.random.default_rng(37)
        service = MonitoringService(AdaptationConfig(), soa=soa)
        made = populated = refused = 0
        for round_ in range(500):
            names = service.task_names
            roll = rng.random()
            if roll < 0.3 or len(names) < 4:
                name = f"t-{made}"
                if made % 3:
                    service.add_task(name, TaskSpec(
                        threshold=100.0, error_allowance=0.05, name=name),
                        window=1 + made % 2)
                else:
                    service.add_quantile_task(name, threshold=100.0,
                                              quantile=0.9)
                made += 1
            elif roll < 0.6:
                target, trigger = map(str, rng.choice(names, 2,
                                                      replace=False))
                if roll < 0.45:
                    service.add_remote_trigger(target, trigger, 90.0)
                else:               # a trigger hosted on another shard
                    service.install_trigger_plan(TriggerPlan(
                        target=target, trigger=f"remote-{round_ % 5}",
                        elevation_level=90.0))
            elif roll < 0.72:      # a local pair, now and then re-levelled
                target, trigger = map(str, rng.choice(names, 2,
                                                      replace=False))
                try:
                    service.add_trigger(target, trigger,
                                        elevation_level=1.0 + round_ % 2)
                except ConfigurationError:
                    refused += 1    # one watch, one level
            elif roll < 0.9:
                service.remove_task(str(rng.choice(names)))
            else:
                service = MonitoringService.restore(service.snapshot(),
                                                    soa=soa)
            scan: dict[str, set[str]] = {}
            for state in service._tasks.values():
                if state.remote_trigger is not None:
                    scan.setdefault(state.remote_trigger,
                                    set()).add(state.name)
            assert {trigger: set(guards) for trigger, guards
                    in service._guards.items()} == scan, round_
            assert all(guards[name] is service._tasks[name]
                       for guards in service._guards.values()
                       for name in guards)
            populated += bool(scan)
            hooks = service._hooks
            assert set(hooks.update) == {
                row for row, state in service._soa_rows.items()
                if state.task_type != "value"}
            assert set(hooks.read) == {
                row for row, state in service._soa_rows.items()
                if state.task_type != "value" or state.window > 1}
        assert made > 100 and populated > 300 and refused


class TestEveryKindOnRows:
    """Windowed, quantile, entropy, guarded and watched tasks on engine
    rows are the scalar service, through wide and narrow ticks, batches
    that repeat rows, by-name offers and explicit arming — with edges
    handed to a sink and left in the buffer alike."""

    @pytest.mark.parametrize("sink", [True, False], ids=["sink", "buffer"])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_mixed_batches_match_scalar(self, estimator, sink,
                                        soa_differential):
        plain = 2 * CROSSOVER
        pair = soa_differential(
            soa_differential.population(plain, estimator),
            register_more=lambda service: soa_differential.register_kinds(
                service, estimator=estimator), sink=sink)
        tasks = len(pair.names)
        assert (pair.rows >= 0).all()
        rng = np.random.default_rng(17)
        calls = pair.count_segments()
        guarded = [n for n in pair.names if n.startswith("guarded")]
        batches = step = 0
        for round_ in range(240):
            step += int(rng.integers(1, 4))
            width = (2, CROSSOVER - 1, 3 * CROSSOVER, tasks)[round_ % 4]
            idx = [int(i) for i in rng.permutation(tasks)[:width]]
            steps = [step] * len(idx)
            # A multi-step frame: some of the rows again, one and two
            # steps on, so a target meets its trigger's edge before and
            # after its own offer of the step.
            for ahead in (1, 2):
                again = [int(i) for i in rng.permutation(idx)[
                    :int(rng.integers(0, len(idx) + 1))]]
                idx += again
                steps += [step + ahead] * len(again)
            step += 2
            if round_ % 11 == 3:
                steps[0] = max(step - 9, 0)              # an old step
            values = [pair.draw(rng, i, s) for i, s in zip(idx, steps)]
            if round_ % 5 == 1:
                pair.offer_by_name(idx, steps, values, fast=round_ % 2)
            else:
                pair.offer(idx, steps, values)
                batches += 1
            if round_ % 7 == 2:
                was = [service.set_trigger_armed(   # an operator's
                    guarded[round_ % len(guarded)], bool(round_ % 3))
                    for service in (pair.scalar, pair.vector)]
                assert was[0] == was[1]
            if round_ % 40 == 0:
                pair.check()
        pair.check()
        vector = pair.vector
        assert sum(len(vector.alerts(n)) for n in pair.names
                   if n.startswith(("quantile", "entropy", "window"))) > 20
        suspensions, _saved = vector.trigger_accounting()
        assert suspensions > 20
        # Edges whose trigger guards a later row of the batch split it,
        # handed to a sink or left in the buffer: the service routes them.
        assert len(calls) > batches + 100 and batches > 180

    @pytest.mark.parametrize("order", ["target-first", "trigger-first"])
    def test_edge_lands_between_the_offers_either_side(self, order,
                                                       soa_differential):
        # One pair, frames of several steps: the guard's offer of a step
        # sits before or after its trigger's, and the trigger crosses its
        # level mid-frame. The target's schedule must turn on the edge's
        # position in the frame, not on the frame.
        pair = soa_differential([], register_more=lambda service: (
            soa_differential.register_kinds(service, copies=1)))
        target = pair.names.index("guarded-0")
        trigger = pair.names.index("trigger-0")
        both = ([target, trigger] if order == "target-first"
                else [trigger, target])
        rng = np.random.default_rng(2)
        edges = 0
        for frame in range(60):
            steps = [frame * 6 + k for k in range(6) for _ in both]
            hot = frame % 2
            values = []
            for step in steps[::2]:
                hot ^= step % 6 == 3                     # mid-frame flip
                level = {target: 50.0, trigger: 120.0 if hot else 60.0}
                values += [level[i] + rng.normal(0.0, 0.3) for i in both]
            pair.offer(both * 6, steps, values)
            edges = len(pair.edges[id(pair.vector)])
        pair.check()
        assert edges > 50
        assert pair.vector.trigger_suspensions("guarded-0") > 10

    def test_edge_with_no_guard_in_the_batch_does_not_split(
            self, soa_differential):
        pair = soa_differential([], register_more=lambda service: (
            soa_differential.register_kinds(service, copies=1)))
        lone = pair.names.index("lone-trigger-0")
        others = [i for i, name in enumerate(pair.names)
                  if not name.startswith(("trigger", "watched", "local"))]
        calls = pair.count_segments()
        for step in range(80):
            idx = others[:3] + [lone] + others[3:]
            value = 99.0 if (step // 4) % 2 else 70.0
            pair.offer(idx, [step] * len(idx),
                       [value if i == lone else 60.0 for i in idx])
        pair.check()
        assert len(pair.edges[id(pair.vector)]) > 10
        assert len(calls) == 80

    @pytest.mark.parametrize("sink", [True, False], ids=["sink", "buffer"])
    def test_offers_that_go_by_name_keep_their_place(self, sink,
                                                     soa_differential):
        # A connection whose intern table says -1 for tasks that have a
        # row — watched ones, one of them the trigger of a local pair as
        # well, and guarded ones: their offers go by name, and their
        # edges — and those they must see — still fall where they arrived.
        pair = soa_differential(
            soa_differential.population(6, "mixed"),
            register_more=soa_differential.register_kinds, sink=sink)
        for service in (pair.scalar, pair.vector):
            service.add_trigger("x-001", "trigger-1", elevation_level=95.0)
        for name in ("trigger-0", "trigger-1", "guarded-1",
                     "guarded-quantile-0"):
            pair.rows[pair.names.index(name)] = -1
        tasks = len(pair.names)
        rng = np.random.default_rng(29)
        for step in range(0, 360, 3):
            idx = [int(i) for i in rng.permutation(tasks)]
            again = idx[:int(rng.integers(0, tasks))]
            steps = [step] * tasks + [step + 1] * len(again)
            idx += again
            pair.offer(idx, steps,
                       [pair.draw(rng, i, s) for i, s in zip(idx, steps)])
        pair.check()
        for name in ("guarded-1", "guarded-0", "x-001"):
            assert pair.vector.trigger_suspensions(name) > 5

    def test_quantile_alert_reports_the_estimate_at_the_alerting_offer(
            self, soa_differential):
        # One frame: the offer that tips p90 over the threshold, then
        # more offers of the same task that drag the estimate far away.
        # The alert is materialised after the frame; it must still carry
        # p90 as of the offer that raised it.
        def register(service):
            service.add_quantile_task("p90", threshold=100.0, quantile=0.9,
                                      error_allowance=0.05, max_interval=4,
                                      sketch_window=64)
            return ["p90"]
        pair = soa_differential([], register_more=register)
        lows = [50.0 + k for k in range(20)]
        pair.offer([0] * 20, list(range(20)), lows)
        assert not pair.vector.alerts("p90")
        frame = [150.0, 150.0, 150.0] + [1e6] * 12
        pair.offer([0] * len(frame), list(range(20, 20 + len(frame))), frame)
        pair.check()
        first = pair.vector.alerts("p90")[0]
        assert first.threshold == 100.0
        assert first.value < 1e3
        assert pair.vector.task_estimate("p90") > 1e5


class TestCrossover:
    """Ticks narrower than ``_NARROW_TICK_ROWS`` are advanced row by row,
    wider ones vectorised; both must be the scalar sampler."""

    WIDTHS = (1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 4 * CROSSOVER)

    @pytest.mark.parametrize("estimator", ESTIMATORS + ("mixed",))
    def test_ticks_straddling_the_crossover_match_scalar(
            self, estimator, soa_differential):
        tasks = 4 * CROSSOVER + 6
        rng = np.random.default_rng(CROSSOVER)
        pair = soa_differential(soa_differential.population(tasks, estimator))
        engine = pair.vector.soa_engine
        intervals_seen = set()
        step = 0
        for round_ in range(160):
            width = self.WIDTHS[round_ % len(self.WIDTHS)]
            # The widest ticks need everything due; otherwise creep.
            step += 7 if width > CROSSOVER + 1 else int(rng.integers(1, 3))
            due = [i for i, name in enumerate(pair.names)
                   if name in pair.scalar.task_names
                   and pair.scalar.due(name, step)]
            rest = [i for i in range(tasks) if i not in due]
            idx = list(rng.permutation(due)[:width])
            idx += list(rng.permutation(rest)[:3])       # not due / stale
            steps = [step] * len(idx)
            # Repeated rows: a second occurrence, one step on, of a few.
            again = idx[:int(rng.integers(0, 4))]
            idx += again
            steps += [step + 1] * len(again)
            step += 1
            if round_ % 9 == 4:                          # an old step
                steps[0] = max(step - 5, 0)
            pair.offer(idx, steps,
                       [pair.value(rng, i, s) for i, s in zip(idx, steps)])
            if round_ == 60:
                for service in (pair.scalar, pair.vector):
                    service.remove_task(pair.names[2])
                    service.add_trigger(pair.names[8], pair.names[9],
                                        elevation_level=60.0)
            intervals_seen.update(engine.interval[:tasks].tolist())
            if round_ % 40 == 0:
                pair.check()
        pair.check()
        # The stream did reach the regimes it is here for.
        assert engine.restarts[:tasks].sum() > tasks
        assert intervals_seen == set(range(1, 7))
        assert sum(len(pair.vector.alerts(n))
                   for n in pair.vector.task_names) > 0

    def test_tick_result_does_not_depend_on_the_path(self, monkeypatch,
                                                     soa_differential):
        # The same batches through an always-vectorised and an always
        # row-by-row engine: every ColumnBatchResult field, event order
        # included, and every row's state must agree.
        tasks = 40
        engines = []
        for _ in range(2):
            engine = soa_mod.SoaSamplerEngine()
            for task, config in soa_differential.population(tasks, "mixed"):
                engine.add_task(task, config)
            engines.append(engine)
        # The advance is swapped per engine, not the crossover constant:
        # the tick split reads that too, and must be the same for both.
        monkeypatch.setattr(engines[0], "_observe_narrow",
                            engines[0]._observe_tick)
        monkeypatch.setattr(engines[1], "_observe_tick",
                            engines[1]._observe_narrow)
        rng = np.random.default_rng(3)
        events = 0
        for step in range(0, 400, 2):
            idx = rng.permutation(tasks)[:int(rng.integers(1, tasks))]
            again = idx[:5]
            steps = np.concatenate([np.full(len(idx), step),
                                    np.full(len(again), step + 1)])
            idx = np.concatenate([idx, again])
            values = np.asarray([soa_differential.value(rng, int(i), int(s))
                                 for i, s in zip(idx, steps)])
            wide, narrow = (engine.run_columns(idx, steps, values)
                            for engine in engines)
            for name in ("applied", "consumed", "rejected"):
                assert getattr(wide, name) == getattr(narrow, name)
            for name in ("consumed_intervals", "fallback", "viol_rows",
                         "viol_steps", "viol_values", "event_rows",
                         "event_steps", "event_values", "event_intervals",
                         "event_flags", "event_betas"):
                np.testing.assert_array_equal(getattr(wide, name),
                                              getattr(narrow, name))
            events += len(wide.event_rows)
        assert events > 100
        for row in range(tasks):
            assert (repr(engines[0].row_state_dict(row))
                    == repr(engines[1].row_state_dict(row)))


class _RecordingHooks:
    """Engine call-backs that log every call per row and answer with a
    statistic that depends on the order of the row's own calls."""

    def __init__(self):
        self.calls = {}
        self.mean = {}

    def absorb(self, rows, values):
        for row, value in zip(rows.tolist(), values.tolist()):
            self.calls.setdefault(row, []).append(("absorb", value))
            self.mean[row] = 0.9 * self.mean.get(row, value) + 0.1 * value

    def monitored(self, rows, steps, values):
        out = []
        for row, step, value in zip(rows.tolist(), steps.tolist(),
                                    values.tolist()):
            self.calls.setdefault(row, []).append(("read", step, value))
            out.append(0.5 * (self.mean.get(row, value) + value))
        return out


def _count_argsorts(monkeypatch):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: (
        calls.append(1) or argsort(*args, **kwargs)))
    return calls


def _step_major(tasks, steps, first_step=0, skip=()):
    """A step-major frame: ``steps`` grid steps of rows ``0..tasks-1`` in
    row order, leaving out the ``(step, row)`` pairs in ``skip``."""
    idx, at = [], []
    for step in range(first_step, first_step + steps):
        for row in range(tasks):
            if (step - first_step, row) not in skip:
                idx.append(row)
                at.append(step)
    return np.asarray(idx, dtype=np.int64), np.asarray(at, dtype=np.int64)


class TestTickSplit:
    """A batch made of a few long strictly-increasing runs is ticked run
    by run as slices; anything else is regrouped by a stable argsort.
    Which of the two happened must not show in any row."""

    TASKS = 3 * CROSSOVER

    def _shapes(self, rng):
        """``(name, rows, steps)`` batch shapes, one grid step on from
        each other: step-major, with holes, runs either side of the
        rule's threshold, task-major and shuffled."""
        tasks = self.TASKS
        full = _step_major(tasks, 4)
        holes = _step_major(tasks, 4, skip={
            (1, r) for r in range(0, tasks, 3)} | {(2, 5), (3, 0)})
        shapes = [("step-major", *full), ("holes", *holes)]
        for run in (CROSSOVER - 1, CROSSOVER, CROSSOVER + 1):
            shapes.append((f"runs-of-{run}", *_step_major(run, 5)))
        order = np.lexsort((full[1], full[0]))          # task-major
        shapes.append(("task-major", full[0][order], full[1][order]))
        order = rng.permutation(len(full[0]))
        order = order[np.argsort(full[1][order], kind="stable")]
        shapes.append(("shuffled", full[0][order], full[1][order]))
        return shapes

    @staticmethod
    def _engine(soa_differential, tasks):
        engine = soa_mod.SoaSamplerEngine()
        for task, config in soa_differential.population(tasks, "mixed"):
            row = engine.add_task(task, config)
            engine.mark_row(row, absorbs=row % 3 == 0,
                            derived=row % 3 == 0 or row % 5 == 1)
        return engine

    def test_run_slices_and_argsort_split_leave_the_same_rows(
            self, monkeypatch, soa_differential):
        runs, sort = (self._engine(soa_differential, self.TASKS)
                      for _ in range(2))
        # Both always vectorised, so only the split differs: the rule
        # reads the crossover constant, which forces it either way.
        for engine in (runs, sort):
            monkeypatch.setattr(engine, "_observe_narrow",
                                engine._observe_tick)
        hooks = _RecordingHooks(), _RecordingHooks()
        argsorts = _count_argsorts(monkeypatch)
        rng = np.random.default_rng(41)
        events = first = 0
        for round_ in range(60):
            for name, idx, steps in self._shapes(rng):
                steps = steps + first
                first = int(steps.max()) + 1 + round_ % 3
                values = np.asarray([
                    soa_differential.value(rng, int(i), int(s))
                    for i, s in zip(idx, steps)])
                results = []
                for engine, hook, crossover in zip(
                        (runs, sort), hooks, (0, 10 ** 9)):
                    monkeypatch.setattr(soa_mod, "_NARROW_TICK_ROWS",
                                        crossover)
                    before = len(argsorts)
                    results.append(engine.run_columns(idx, steps, values,
                                                      hook))
                    # One run needs no sort under either rule.
                    assert len(argsorts) - before == (crossover > 0)
                by_runs, by_sort = results
                for field in ("applied", "consumed", "rejected"):
                    assert (getattr(by_runs, field)
                            == getattr(by_sort, field)), name
                assert (sorted(by_runs.consumed_intervals.tolist())
                        == sorted(by_sort.consumed_intervals.tolist()))
                assert (set(by_runs.event_rows.tolist())
                        == set(by_sort.event_rows.tolist()))
                for row in set(by_runs.event_rows.tolist()):
                    for field in ("event_steps", "event_values",
                                  "event_intervals", "event_flags",
                                  "event_betas"):
                        np.testing.assert_array_equal(
                            getattr(by_runs, field)[by_runs.event_rows
                                                    == row],
                            getattr(by_sort, field)[by_sort.event_rows
                                                    == row], (name, row))
                events += len(by_runs.event_rows)
        assert events > 1000
        assert hooks[0].calls == hooks[1].calls and len(hooks[0].calls) > 10
        for column, array in vars(runs).items():
            if isinstance(array, np.ndarray):
                np.testing.assert_array_equal(array, getattr(sort, column),
                                              column)

    def test_the_rule_sorts_only_short_or_interleaved_batches(
            self, monkeypatch, soa_differential):
        engine = self._engine(soa_differential, self.TASKS)
        argsorts = _count_argsorts(monkeypatch)
        sorted_shapes = set()
        first = 0
        rng = np.random.default_rng(43)
        for name, idx, steps in self._shapes(rng):
            steps = steps + first
            first = int(steps.max()) + 1
            before = len(argsorts)
            engine.run_columns(idx, steps, np.full(len(idx), 50.0),
                               _RecordingHooks())
            if len(argsorts) > before:
                sorted_shapes.add(name)
        assert sorted_shapes == {f"runs-of-{CROSSOVER - 1}", "task-major",
                                 "shuffled"}
        # One run is a tick as it stands, however short.
        before = len(argsorts)
        engine.run_columns(np.arange(3), np.full(3, first), np.ones(3))
        assert len(argsorts) == before

    @pytest.mark.parametrize("split", ["natural", "runs", "argsort"])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_step_major_frames_of_every_kind_match_scalar(
            self, estimator, split, monkeypatch, soa_differential):
        # Typed, windowed, guarded and watched rows in step-major frames
        # whose triggers flip mid-frame, so watch cuts fall inside runs
        # and every piece is ticked as slices (or, forced, regrouped).
        if split != "natural":
            monkeypatch.setattr(soa_mod, "_NARROW_TICK_ROWS",
                                0 if split == "runs" else 10 ** 9)
        pair = soa_differential(
            soa_differential.population(CROSSOVER, estimator),
            register_more=lambda service: soa_differential.register_kinds(
                service, estimator=estimator))
        tasks = len(pair.names)
        by_row = np.argsort(pair.rows)   # a step's offers in row order
        calls = pair.count_segments()
        rng = np.random.default_rng(47)
        step = frames = 0
        for frame in range(90):
            skip = {(int(rng.integers(4)), int(rng.integers(tasks)))
                    for _ in range(frame % 4 * 3)}
            idx, steps = _step_major(tasks, 4, first_step=step, skip=skip)
            idx = by_row[idx]
            step += 4 + frame % 2
            values = [pair.draw(rng, int(i), int(s))
                      for i, s in zip(idx, steps)]
            pair.offer(idx.tolist(), steps.tolist(), values)
            frames += 1
            if frame % 30 == 0:
                pair.check()
        pair.check()
        assert len(calls) > frames                  # edges cut inside runs
        assert len(pair.edges[id(pair.vector)]) > 20
        assert sum(len(pair.vector.alerts(n)) for n in pair.names
                   if n.startswith(("quantile", "entropy", "window"))) > 20


class TestRejectedOffersLeaveNoTrace:
    """A rejected offer (non-increasing step, non-finite delta) must not
    change the checkpoint fingerprint — not even ``observations``."""

    BAD = ((3, 50.0), (2, 50.0), (9, float("nan")), (9, float("inf")))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_scalar_surfaces(self, estimator):
        task = TaskSpec(threshold=100.0, error_allowance=0.05)
        sampler = ViolationLikelihoodSampler(
            task, AdaptationConfig(estimator=estimator))
        for step in range(4):
            sampler.observe(40.0 + step, step)
        before = sampler.state_dict()
        for step, value in self.BAD:
            with pytest.raises(ValueError):
                sampler.observe(value, step)
        assert sampler.state_dict() == before

    @pytest.mark.parametrize("width", [CROSSOVER - 1, 4 * CROSSOVER])
    def test_engine_paths(self, width):
        # Narrow (row-by-row) and wide (vectorised) ticks alike: half the
        # rows get a bad offer, and only the other half may change.
        engine = soa_mod.SoaSamplerEngine()
        task = TaskSpec(threshold=100.0, error_allowance=0.05)
        rows = np.asarray([engine.add_task(task) for _ in range(width)])
        for step in range(4):
            engine.run_columns(rows, np.full(width, step),
                               np.full(width, 40.0 + step))
        before = [engine.row_state_dict(int(row)) for row in rows]
        even = rows % 2 == 0
        for k, (step, value) in enumerate(self.BAD):
            # Forced due, as after a trigger's full-rate resume: the
            # schedule alone never lets a stale step reach the sampler.
            engine.next_due[rows] = 0
            result = engine.run_columns(rows, np.where(even, step, 20 + k),
                                        np.where(even, value, 45.0))
            assert result.rejected == np.count_nonzero(even)
            assert result.consumed == width - result.rejected
            engine.next_due[rows] = 0
            after = [engine.row_state_dict(int(row)) for row in rows]
            for row in rows.tolist():
                assert (after[row] == before[row]) == bool(even[row])
            before = after


class TestNonFiniteValuesNeverLand:
    """A non-finite *value* is refused before anything sees it — last-seen
    map, watcher, substrate, window buffer, engine column — on the scalar
    and the columnar surface alike. Before the gate only non-finite
    *deltas* were refused, so a NaN that was a task's first-ever value
    became its ``last_value`` and every later offer was rejected."""

    @staticmethod
    def _typed(service):
        service.add_task("win", TaskSpec(threshold=100.0,
                                         error_allowance=0.05,
                                         max_interval=6, name="win"),
                         window=4)
        service.add_quantile_task("p90", threshold=100.0, quantile=0.9,
                                  error_allowance=0.05, max_interval=6,
                                  sketch_window=32)
        service.add_entropy_task("ent", threshold=0.5, error_allowance=0.05,
                                 max_interval=6, entropy_window=32)
        return ["win", "p90", "ent"]

    @pytest.mark.parametrize("first", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_first_value_does_not_brick_a_task(
            self, first, soa_differential):
        pair = soa_differential(soa_differential.population(6, "mixed"),
                                register_more=self._typed)
        everyone = list(range(len(pair.names)))
        before = json_snapshot(pair.scalar)
        pair.offer(everyone, [0] * len(everyone), [first] * len(everyone))
        # Refused means untouched: nothing of the offer was recorded.
        assert json_snapshot(pair.scalar) == before
        assert json_snapshot(pair.vector) == before
        rng = np.random.default_rng(5)
        for step in range(1, 240):
            values = [pair.value(rng, i, step) for i in everyone]
            pair.offer(everyone, [step] * len(everyone), values)
        pair.check()
        for name in pair.names:
            # Bricked tasks sampled once and then rejected for good.
            assert pair.vector.samples_taken(name) > 20, name
        window = pair.vector._tasks["win"]
        assert np.isfinite(window._window_sum)

    def test_finite_streams_are_untouched_by_the_gate(self,
                                                      soa_differential):
        pair = soa_differential(soa_differential.population(6, "mixed"),
                                register_more=self._typed)
        everyone = list(range(len(pair.names)))
        for step in range(120):
            pair.offer(everyone, [step] * len(everyone),
                       [40.0 + i + 0.1 * step for i in everyone])
        pair.check()
        applied = sum(pair.vector.observations(n) for n in pair.names)
        assert applied > len(everyone)

    def test_engine_row_refuses_a_step_outside_its_range(self):
        service = _service(soa=True, tasks=2)
        for step in range(5):
            for name in ("mix-0", "mix-1"):
                service.offer_fast(name, 40.0 + step, step)
        before = json_snapshot(service)
        for step in (2 ** 63, -2 ** 63 - 1, 2 ** 63 - 1, STEP_MAX + 1,
                     STEP_MIN - 1):
            with pytest.raises(ValueError):
                service.offer_fast("mix-0", 45.0, step)
            with pytest.raises(ValueError):
                service.offer("mix-0", 45.0, step)
        # Refused before any column of the row was written.
        assert json_snapshot(service) == before
        # The bound itself leaves `step + interval` room in int64: by
        # name and as a (narrow-tick) column batch.
        assert service.offer_fast("mix-0", 45.0, STEP_MAX) is not None
        applied, consumed, rejected, _ = service.offer_columns(
            [service.soa_row_for("mix-1")], [STEP_MAX], [45.0], ["mix-1"])
        assert (applied, consumed, rejected) == (1, 1, 0)
