"""Hypothesis properties: checkpoint state round-trips bit-identically.

The recovery story (DESIGN.md S28) rests on one property: serialising
any component mid-run and restoring it yields an object whose future
behaviour is *bit-identical* to the original's — not approximately equal,
identical. These properties drive randomly generated streams to a random
split point, round-trip the state through JSON (what a checkpoint file
actually stores), and demand exact equality from then on.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.online_stats import OnlineStatistics
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.experiments.runner import _lockstep
from repro.runtime.checkpoint import (read_checkpoint, state_fingerprint,
                                      write_checkpoint)
from repro.service import MonitoringService

bounded = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


def roundtrip(state):
    """What the wire does to a state dict: JSON out (an array as its
    list), JSON in."""
    return json.loads(json.dumps(state, default=np.ndarray.tolist))


class TestOnlineStatisticsRoundtrip:
    @given(values=st.lists(bounded, min_size=1, max_size=300),
           restart_after=st.one_of(st.none(),
                                   st.integers(min_value=5, max_value=60)),
           extra=st.lists(bounded, min_size=0, max_size=100))
    @settings(max_examples=80, deadline=None)
    def test_restored_statistics_evolve_identically(self, values,
                                                    restart_after, extra):
        # `restart_after` small enough that restarts happen mid-stream, so
        # the fresh-window bookkeeping round-trips too.
        stats = OnlineStatistics(restart_after=restart_after, min_fresh=3)
        for x in values:
            stats.update(x)
        clone = OnlineStatistics(restart_after=restart_after, min_fresh=3)
        clone.load_state_dict(roundtrip(stats.state_dict()))
        assert clone.state_dict() == stats.state_dict()
        for x in extra:
            stats.update(x)
            clone.update(x)
            assert clone.mean == stats.mean
            assert clone.variance == stats.variance
            assert clone.effective_count == stats.effective_count
            assert clone.restarts == stats.restarts
        assert clone.state_dict() == stats.state_dict()


class TestSamplerRoundtrip:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           estimator=st.sampled_from(["chebyshev", "gaussian"]),
           split=st.integers(min_value=1, max_value=80),
           err=st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_restored_sampler_decisions_are_bit_identical(
            self, seed, estimator, split, err):
        """Snapshot at an arbitrary observation count — including right
        after a statistics restart — and the restored sampler's decision
        stream must equal the uninterrupted one exactly."""
        spec = TaskSpec(threshold=10.0, error_allowance=err, max_interval=8)
        config = AdaptationConfig(patience=3, min_samples=4,
                                  stats_restart=25, estimator=estimator)
        rng = np.random.default_rng(seed)
        values = rng.normal(7.0, 2.0, 600)

        reference = ViolationLikelihoodSampler(spec, config)
        split_sampler = ViolationLikelihoodSampler(spec, config)
        step = 0
        for _ in range(split):
            decision = reference.observe(float(values[step]), step)
            split_sampler.observe(float(values[step]), step)
            step += decision.next_interval

        restored = ViolationLikelihoodSampler(spec, config)
        restored.load_state_dict(roundtrip(split_sampler.state_dict()))
        assert restored.state_dict() == split_sampler.state_dict()

        while step < values.size:
            ref = reference.observe(float(values[step]), step)
            res = restored.observe(float(values[step]), step)
            assert ref == res
            step += ref.next_interval
        assert restored.state_dict() == reference.state_dict()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           estimator=st.sampled_from(["chebyshev", "gaussian"]),
           record=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_run_trace_final_state_is_restorable(self, seed, estimator,
                                                 record):
        """An offline run's engine row (interval recording on or off)
        ends in a state that round-trips into a scalar sampler, and the
        two then agree on every decision of a continuation stream."""
        spec = TaskSpec(threshold=10.0, error_allowance=0.05,
                        max_interval=8)
        config = AdaptationConfig(patience=3, min_samples=4,
                                  stats_restart=25, estimator=estimator)
        rng = np.random.default_rng(seed)
        engine, _, intervals = _lockstep([rng.normal(7.0, 2.0, 300)],
                                         [spec], config, record)
        assert (intervals is not None) == record

        restored = ViolationLikelihoodSampler(spec, config)
        restored.load_state_dict(roundtrip(engine.row_state_dict(0)))
        assert restored.state_dict() == engine.row_state_dict(0)
        step = 300
        for value in rng.normal(7.0, 2.0, 50).tolist():
            decision = restored.observe(value, step)
            assert engine.observe_one(0, value, step) == \
                decision.next_interval
            assert engine.last_beta[0] == decision.misdetection_bound
            step += decision.next_interval
        assert engine.row_state_dict(0) == restored.state_dict()


class TestTypedTaskSnapshotRoundtrip:
    """Sketch-backed quantile and entropy tasks must checkpoint too.

    The substrates carry extra state (a rotating LogHistogram pair, a
    symbol window) beyond the sampler's — a snapshot taken mid-epoch,
    mid-window, or right after a rotation must restore bit-identically
    and then *stay* identical through an arbitrary continuation.
    """

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           split=st.integers(min_value=0, max_value=250),
           sketch_window=st.integers(min_value=4, max_value=40),
           entropy_window=st.integers(min_value=2, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_typed_snapshot_restore_is_bit_identical_and_continues(
            self, seed, split, sketch_window, entropy_window):
        rng = np.random.default_rng(seed)
        # Heavy-tailed so quantile truth points exist; offset so entropy
        # symbols spread over several bins.
        values = 40.0 * rng.lognormal(0.0, 0.3, 300)

        def build():
            service = MonitoringService(AdaptationConfig(patience=3,
                                                         min_samples=4))
            service.add_quantile_task("q", threshold=70.0, quantile=0.9,
                                      error_allowance=0.05, max_interval=6,
                                      sketch_window=sketch_window)
            service.add_entropy_task("h", threshold=1.0,
                                     error_allowance=0.05, max_interval=6,
                                     entropy_window=entropy_window,
                                     bin_width=8.0)
            return service

        def feed(service, lo, hi):
            for step in range(lo, hi):
                for name in ("q", "h"):
                    service.offer(name, float(values[step]), step)

        uninterrupted = build()
        feed(uninterrupted, 0, 300)

        interrupted = build()
        feed(interrupted, 0, split)
        snapshot = roundtrip(interrupted.snapshot())
        restored = MonitoringService.restore(snapshot)
        assert state_fingerprint(restored.snapshot()) \
            == state_fingerprint(snapshot)
        feed(restored, split, 300)

        for name in ("q", "h"):
            assert restored.samples_taken(name) \
                == uninterrupted.samples_taken(name)
            assert restored.alerts(name) == uninterrupted.alerts(name)
            assert restored.interval(name) == uninterrupted.interval(name)
            assert restored.task_estimate(name) \
                == uninterrupted.task_estimate(name)
        assert state_fingerprint(restored.snapshot()) \
            == state_fingerprint(uninterrupted.snapshot())


# A typed fleet: every kind of sparse state a snapshot writes as columns.
_TYPED_TASK = st.one_of(
    # (kind, sketch window or ring length or window, guard)
    st.tuples(st.just("quantile"), st.integers(min_value=2, max_value=40)),
    st.tuples(st.just("entropy"), st.integers(min_value=2, max_value=40)),
    st.tuples(st.just("windowed"), st.integers(min_value=2, max_value=5)),
    st.tuples(st.just("plain"), st.just(1)))
_TYPED_FLEET = st.lists(st.tuples(
    _TYPED_TASK,
    # The guard: none, or on the watched local trigger or one elsewhere,
    # left armed or disarmed.
    st.sampled_from([None, ("trigger", True), ("trigger", False),
                     ("far", True), ("far", False)])),
    min_size=1, max_size=8)


def _typed_fleet(fleet, soa, min_hold):
    service = MonitoringService(AdaptationConfig(patience=3, min_samples=4),
                                soa=soa)
    service.add_task("trigger", TaskSpec(0.0, 0.05, max_interval=6))
    service.add_trigger_watch("trigger", 0.0, hysteresis=0.2,
                              min_hold=min_hold)
    for at, ((kind, size), guard) in enumerate(fleet):
        name = f"{kind}-{at}"
        if kind == "quantile":
            service.add_quantile_task(name, threshold=1.0, quantile=0.8,
                                      max_interval=6, sketch_window=size)
        elif kind == "entropy":
            service.add_entropy_task(name, threshold=1.0, max_interval=6,
                                     entropy_window=size, bin_width=4.0)
        else:
            service.add_task(name, TaskSpec(5.0, 0.05, max_interval=6),
                             window=size)
        if guard is not None:
            service.add_remote_trigger(name, guard[0], 0.0,
                                       suspend_interval=3)
            service.set_trigger_armed(name, guard[1])
    return service


def _typed_offers(names, steps, seed):
    """Per step one value per task: signed, with exact zeros (the
    sketch's zero bucket) and a scale that moves between steps."""
    rng = np.random.default_rng(seed)
    frames = []
    for step in range(steps):
        values = rng.normal(rng.choice([-10.0, 0.0, 10.0]), 8.0, len(names))
        values[rng.random(len(names)) < 0.15] = 0.0
        frames.append((step, values.tolist()))
    return frames


class TestTypedFleetRoundtrip:
    """A fleet of quantile tasks (sealed sketch or not; negative, zero
    and positive buckets), entropy rings part-full and full, windowed
    tasks, guards armed, disarmed and counting, and a watcher that may
    sit inside its hold: the scalar and the engine service write one
    snapshot, and checkpoint -> restore -> checkpoint is the identity
    on it — as the arrays a checkpoint file hands back, and as the JSON
    lists a subprocess worker receives — onto either representation."""

    @given(fleet=_TYPED_FLEET,
           steps=st.integers(min_value=0, max_value=80),
           min_hold=st.integers(min_value=0, max_value=30),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_typed_snapshot_is_one_document_and_restores_to_itself(
            self, fleet, steps, min_hold, seed):
        scalar = _typed_fleet(fleet, False, min_hold)
        engine = _typed_fleet(fleet, True, min_hold)
        names = scalar.task_names
        rows = [engine.soa_row_for(name) for name in names]
        for step, values in _typed_offers(names, steps, seed):
            for name, value in zip(names, values):
                scalar.offer(name, value, step)
            engine.offer_columns(rows, [step] * len(rows), values, names)
        snapshot = engine.snapshot()
        fingerprint = state_fingerprint(snapshot)
        assert state_fingerprint(scalar.snapshot()) == fingerprint

        with tempfile.TemporaryDirectory() as tmp:
            path = write_checkpoint(pathlib.Path(tmp) / "typed.ckpt",
                                    {"snapshot": snapshot})
            filed = read_checkpoint(path)["snapshot"]
        for document in (snapshot, filed, roundtrip(snapshot)):
            for soa in (False, True):
                restored = MonitoringService.restore(document, soa=soa)
                assert state_fingerprint(restored.snapshot()) == fingerprint


class TestServiceSnapshotRoundtrip:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           split=st.integers(min_value=0, max_value=200),
           window=st.integers(min_value=1, max_value=6),
           kind=st.sampled_from(list(AggregateKind)))
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_is_bit_identical_and_continues(
            self, seed, split, window, kind):
        rng = np.random.default_rng(seed)
        values = rng.normal(80.0, 15.0, 300)

        def build():
            service = MonitoringService(AdaptationConfig(patience=3,
                                                         min_samples=4))
            service.add_task("inst", TaskSpec(threshold=100.0,
                                              error_allowance=0.05,
                                              max_interval=8))
            service.add_task("win", TaskSpec(threshold=95.0,
                                             error_allowance=0.02,
                                             max_interval=6),
                             window=window, window_kind=kind)
            service.add_trigger("inst", trigger="win",
                                elevation_level=70.0, suspend_interval=5)
            return service

        def feed(service, lo, hi):
            for step in range(lo, hi):
                for name in ("inst", "win"):
                    service.offer(name, float(values[step]), step)

        uninterrupted = build()
        feed(uninterrupted, 0, 300)

        interrupted = build()
        feed(interrupted, 0, split)
        snapshot = roundtrip(interrupted.snapshot())
        restored = MonitoringService.restore(snapshot)
        # Restore -> snapshot must be the identity on the wire format.
        assert state_fingerprint(restored.snapshot()) \
            == state_fingerprint(snapshot)
        feed(restored, split, 300)

        for name in ("inst", "win"):
            assert restored.samples_taken(name) \
                == uninterrupted.samples_taken(name)
            assert restored.alerts(name) == uninterrupted.alerts(name)
            assert restored.interval(name) == uninterrupted.interval(name)
            assert restored.next_due(name) == uninterrupted.next_due(name)
        # The full final states are bit-identical, not merely equivalent.
        assert state_fingerprint(restored.snapshot()) \
            == state_fingerprint(uninterrupted.snapshot())


class TestEngineRowSnapshotRoundtrip:
    """The same property with every task on an engine row: windowed,
    quantile, entropy, guarded (armed or not, suspensions counted in a
    column) and watched (mid-hold or not) tasks are serialised from
    their rows and adopted again on restore, at any split point."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           split=st.integers(min_value=0, max_value=160),
           estimator=st.sampled_from(("chebyshev", "gaussian")))
    @settings(max_examples=25, deadline=None)
    def test_row_snapshot_restore_is_bit_identical_and_continues(
            self, soa_differential, seed, split, estimator):
        pair = soa_differential(
            soa_differential.population(4, estimator),
            register_more=lambda service: soa_differential.register_kinds(
                service, copies=1, estimator=estimator))
        everyone = list(range(len(pair.names)))
        rng = np.random.default_rng(seed)

        def feed(lo, hi):
            for step in range(lo, hi):
                pair.offer(everyone, [step] * len(everyone),
                           [pair.draw(rng, i, step) for i in everyone])

        feed(0, split)
        snapshot = roundtrip(pair.vector.snapshot())
        assert state_fingerprint(snapshot) \
            == state_fingerprint(pair.scalar.snapshot())
        # Carry on with the restored service in the interrupted one's
        # place: its callbacks, trace and sink are re-attached.
        fired = pair.fired["vector"]
        restored = MonitoringService.restore(
            snapshot, soa=True, on_alert=lambda name, alert: (
                fired[name].append(alert) if name in fired else None))
        assert all(restored.soa_row_for(name) >= 0 for name in pair.names)
        # Restore -> snapshot must be the identity on the wire format.
        assert state_fingerprint(restored.snapshot()) \
            == state_fingerprint(snapshot)
        restored.attach_telemetry(pair.vector._trace)
        restored.set_trigger_sink(pair.edges[id(pair.vector)].append)
        pair.edges[id(restored)] = pair.edges[id(pair.vector)]
        pair.vector = restored
        pair.rows = np.asarray([restored.soa_row_for(name)
                                for name in pair.names], dtype=np.int64)
        feed(split, 200)
        pair.check()
