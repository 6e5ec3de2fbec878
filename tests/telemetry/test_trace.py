"""Tests for the decision-trace ring buffer and its emission seams."""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import CoordinationStats
from repro.core.coordination import AdaptiveAllocation
from repro.core.soa import ColumnBatchResult
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.telemetry.trace import (DECISION_BLOCK, DecisionTrace,
                                   TRACE_EVENT_KINDS)


def _parent_events(res: ColumnBatchResult, values: list[float],
                   thresholds: list[float], names: Any,
                   shard: int | None) -> list[dict[str, Any]]:
    """The reference: the loop an engine service built a batch's trace
    events with when the ring held dicts — one per event, key for key
    what ``emit`` builds, in tick order, an offer's ``interval_adapted``
    before its ``violation`` — over ``res.event_*``, the violating
    offers' reported ``values`` and ``thresholds``, and the name of each
    row as of the batch (``seq`` / ``ts_monotonic`` left for the ring to
    stamp)."""
    violations = zip(values, thresholds)
    events: list[dict[str, Any]] = []
    for row, step, interval, flags, beta in zip(
            res.event_rows.tolist(), res.event_steps.tolist(),
            res.event_intervals.tolist(), res.event_flags.tolist(),
            res.event_betas.tolist()):
        name = names[row]
        if flags & 3:
            events.append({
                "seq": 0, "ts_monotonic": 0.0,
                "kind": "interval_adapted", "task": name,
                "shard": shard, "step": step, "interval": interval,
                "grew": bool(flags & 1), "reset": bool(flags & 2),
                "beta": beta})
        if flags & 4:
            value, threshold = next(violations)
            events.append({
                "seq": 0, "ts_monotonic": 0.0, "kind": "violation",
                "task": name, "shard": shard, "step": step,
                "value": value, "threshold": threshold})
    if shard is None:  # which emit leaves out
        for event in events:
            del event["shard"]
    return events


def _result(offers: list[tuple[int, int, int, int, float, float]],
            ) -> ColumnBatchResult:
    """A batch's flagged offers ``(row, step, interval, flags, beta,
    value)`` as ``run_columns`` reports them."""
    res = ColumnBatchResult()
    (res.event_rows, res.event_steps, res.event_intervals,
     res.event_flags) = (np.asarray(column, dtype=np.int64)
                         for column in list(zip(*offers))[:4])
    res.event_betas, res.event_values = (
        np.asarray(column, dtype=np.float64)
        for column in list(zip(*offers))[4:])
    viol = np.flatnonzero(res.event_flags & 4)
    res.viol_rows = res.event_rows[viol]
    res.viol_steps = res.event_steps[viol]
    res.viol_values = res.event_values[viol]
    return res


class _ParentRing:
    """The reference ring: a deque of dicts, stamped a batch at a time."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.next_seq = 0
        self.dropped = 0

    def emit(self, kind: str, task: str | None = None,
             shard: int | None = None, **data: Any) -> None:
        event: dict[str, Any] = {"seq": 0, "ts_monotonic": 0.0,
                                 "kind": kind}
        if task is not None:
            event["task"] = task
        if shard is not None:
            event["shard"] = shard
        self.emit_batch([{**event, **data}])

    def emit_batch(self, events: list[dict[str, Any]]) -> None:
        stamp = time.monotonic()
        for event in events:
            event["seq"] = self.next_seq
            event["ts_monotonic"] = stamp
            self.next_seq += 1
        free = self.capacity - len(self.events)
        self.dropped += max(len(events) - free, 0)
        self.events.extend(events)

    def drain(self, since: int, limit: int | None) -> list[dict[str, Any]]:
        out = [event for event in self.events if event["seq"] >= since]
        return out if limit is None else out[:limit]


def _emit_args(event: dict[str, Any]) -> tuple[str, str | None, Any,
                                               dict[str, Any]]:
    """``emit``'s arguments for a built event."""
    data = {key: value for key, value in event.items()
            if key not in ("seq", "ts_monotonic", "kind", "task", "shard")}
    return event["kind"], event.get("task"), event.get("shard"), data


def _unstamped(events: list[dict[str, Any]]) -> list[list[tuple[str, Any]]]:
    """Events as key-ordered pairs, the clock read left out."""
    return [[(key, value) for key, value in event.items()
             if key != "ts_monotonic"] for event in events]


class TestRingBuffer:
    def test_emit_assigns_monotonic_seq(self):
        trace = DecisionTrace(capacity=8)
        seqs = [trace.emit("violation", task="t", step=i) for i in range(3)]
        assert seqs == [0, 1, 2]
        assert trace.next_seq == 3
        events = trace.drain()
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert all(e["kind"] == "violation" for e in events)
        assert events[0]["task"] == "t" and events[0]["step"] == 0
        assert events[0]["ts_monotonic"] <= events[-1]["ts_monotonic"]

    def test_wraparound_evicts_oldest_and_counts_drops(self):
        trace = DecisionTrace(capacity=4)
        for i in range(10):
            trace.emit("shed", count=i)
        assert len(trace) == 4
        assert trace.dropped == 6
        events = trace.drain()
        assert [e["seq"] for e in events] == [6, 7, 8, 9]

    def test_drain_since_and_limit(self):
        trace = DecisionTrace(capacity=16)
        for i in range(6):
            trace.emit("checkpoint_written", n=i)
        assert [e["seq"] for e in trace.drain(since=3)] == [3, 4, 5]
        assert [e["seq"] for e in trace.drain(since=2, limit=2)] == [2, 3]
        assert trace.drain(since=99) == []
        assert trace.drain(limit=0) == []
        with pytest.raises(ValueError, match="since"):
            trace.drain(since=-1)
        with pytest.raises(ValueError, match="limit"):
            trace.drain(limit=-2)   # once: seqs 0-3, the newest two cut

    def test_drain_is_non_destructive(self):
        trace = DecisionTrace(capacity=4)
        trace.emit("restore")
        assert len(trace.drain()) == 1
        assert len(trace.drain()) == 1

    def test_dump_and_to_jsonl(self):
        trace = DecisionTrace(capacity=8)
        trace.emit("violation", task="a", value=5.0)
        trace.emit("shed", shard=2, count=7)
        text = trace.to_jsonl()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert [json.loads(line) for line in lines] == trace.drain()
        assert [json.loads(line)["kind"] for line in lines] == \
            ["violation", "shed"]
        assert json.loads(lines[1])["shard"] == 2
        assert trace.to_jsonl(since=1) == lines[1] + "\n"

    @pytest.mark.parametrize("held,batch", [
        (0, 0), (0, 3), (2, 5),   # fits the free room (8 - held)
        (5, 3), (5, 4),           # fills it exactly / straddles it
        (8, 2), (3, 8),           # full ring / a batch of the capacity
        (3, 11), (8, 30)])        # more than the ring holds
    def test_emit_batch_is_emit_in_a_loop(self, held, batch):
        """A batch's block of ``batch`` events behind ``held`` emitted ones
        drains as ``batch`` emits would have stored it."""
        one_by_one, blocked = DecisionTrace(8), DecisionTrace(8)
        for trace in (one_by_one, blocked):
            for i in range(held):
                trace.emit("shed", count=i)
        offers, events = [], 0
        while events < batch:   # flags 5 (two events) where two still fit
            k = len(offers)
            flags = 5 if batch - events > 1 and k % 3 == 0 else (1, 2, 4)[
                k % 3]
            offers.append((k % 2, k, 1 + k % 4, flags, 0.01 * k, k / 2))
            events += 1 + (flags == 5)
        if offers:
            res = _result(offers)
            values = res.viol_values.tolist()
            for event in _parent_events(res, values, [1.5] * len(values),
                                        ["t0", "t1"], 7):
                kind, task, shard, data = _emit_args(event)
                one_by_one.emit(kind, task, shard, **data)
        records = np.array([offer + (1.5,) for offer in offers],
                           dtype=DECISION_BLOCK)
        assert blocked.emit_block(records, ["t0", "t1"], 7) == held
        assert blocked.next_seq == one_by_one.next_seq == held + batch
        assert blocked.dropped == one_by_one.dropped
        assert len(blocked) == len(one_by_one)
        got = blocked.drain()
        assert _unstamped(got) == _unstamped(one_by_one.drain())
        stamps = {e["ts_monotonic"] for e in got if e["seq"] >= held}
        assert len(stamps) <= 1                     # one clock read

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            DecisionTrace(capacity=0)


_flagged = st.tuples(
    st.integers(min_value=0, max_value=63),              # which live task
    st.sampled_from((1, 2, 3, 4, 5, 6)),                 # flags
    st.integers(min_value=1, max_value=10),              # interval
    st.floats(min_value=0.0, max_value=1.0),             # beta
    st.floats(min_value=-1e3, max_value=1e3),            # value
    st.floats(min_value=0.0, max_value=200.0))           # p_q estimate
_ops = st.lists(st.one_of(
    st.tuples(st.just("emit"),
              st.sampled_from(("shed", "trigger_armed", "checkpoint_written")),
              st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("batch"), st.lists(_flagged, min_size=1, max_size=12)),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63))),
    max_size=24)


@given(ops=_ops, capacity=st.sampled_from((1, 3, 8, 64)),
       shard=st.sampled_from((None, 0, 5)),
       since=st.integers(min_value=0, max_value=150),
       limit=st.one_of(st.none(), st.integers(min_value=0, max_value=40)))
@settings(max_examples=120, deadline=None)
def test_a_block_drains_as_emit_batch_stored_it(ops, capacity, shard, since,
                                                limit):
    """Any interleaving of ``emit`` and an engine service's batches, on
    a ring as small as one event: ``drain`` (any cursor, any limit),
    ``dropped``, ``next_seq`` and ``len`` are what they were when the
    ring held the dicts ``_parent_events`` builds — the names as of each
    batch, though its task has been removed since."""
    service = MonitoringService(soa=True)
    for i in range(6):
        if i % 3 == 2:   # alerts with its p_q, in the value frame
            service.add_quantile_task(f"t{i}", threshold=80.0 + i,
                                      quantile=0.9)
        else:
            service.add_task(f"t{i}", TaskSpec(threshold=100.0 + i,
                                               error_allowance=0.01))
    trace = DecisionTrace(capacity)
    service.attach_telemetry(trace, shard=shard)
    parent = _ParentRing(capacity)
    step = 0
    for op, *args in ops:
        live = {service.soa_row_for(name): name
                for name in service.task_names}
        if op == "emit":
            kind, n = args
            for ring in (trace, parent):
                ring.emit(kind, task=f"t{n}" if n % 2 else None,
                          shard=shard, count=n)
        elif op == "remove":
            if len(live) > 1:
                service.remove_task(list(live.values())[args[0] % len(live)])
        else:
            rows = list(live)
            offers = [(rows[k % len(rows)], step + at, interval, flags,
                       beta, value)
                      for at, (k, flags, interval, beta, value, _)
                      in enumerate(args[0])]
            step += len(offers)
            res = _result(offers)
            estimates = {(row, at): estimate for (row, at, _, flags, _, _),
                         (*_, estimate) in zip(offers, args[0])
                         if flags & 4 and service.task_type(live[row])
                         == "quantile"}
            values = [estimates.get(offer, value) for offer, value in zip(
                zip(res.viol_rows.tolist(), res.viol_steps.tolist()),
                res.viol_values.tolist())]
            thresholds = service.soa_engine.alert_threshold[
                res.viol_rows].tolist()
            parent.emit_batch(_parent_events(res, values, thresholds, live,
                                             shard))
            service._fan_out_columns(res, dict(estimates))
    assert (trace.dropped, trace.next_seq, len(trace)) == (
        parent.dropped, parent.next_seq, len(parent.events))
    for cursor, most in ((0, None), (since, limit)):
        assert _unstamped(trace.drain(cursor, most)) == _unstamped(
            parent.drain(cursor, most))


class TestServiceEmission:
    @staticmethod
    def _service(trace) -> MonitoringService:
        service = MonitoringService()
        service.add_task("t", TaskSpec(threshold=100.0,
                                       error_allowance=0.05,
                                       max_interval=10))
        service.attach_telemetry(trace, shard=3)
        return service

    @staticmethod
    def _drive(offer) -> None:
        for t in range(40):
            offer("t", 10.0, t)         # quiet: interval grows
        for t in range(40, 60):
            offer("t", 500.0, t)        # a due step must see the burst

    @pytest.mark.parametrize("surface", ["offer", "offer_fast"])
    def test_adaptation_and_violation_events(self, surface):
        trace = DecisionTrace(capacity=256)
        service = self._service(trace)
        self._drive(getattr(service, surface))
        kinds = [e["kind"] for e in trace.drain()]
        assert "interval_adapted" in kinds
        assert "violation" in kinds
        violation = next(e for e in trace.drain()
                         if e["kind"] == "violation")
        assert violation["task"] == "t" and violation["shard"] == 3
        assert violation["value"] == 500.0
        assert violation["threshold"] == 100.0

    def test_offer_surfaces_emit_identical_streams(self):
        slow, fast = DecisionTrace(1024), DecisionTrace(1024)
        service_slow = self._service(slow)
        service_fast = self._service(fast)
        self._drive(service_slow.offer)
        self._drive(service_fast.offer_fast)

        def strip(events):
            return [{k: v for k, v in e.items() if k != "ts_monotonic"}
                    for e in events]

        assert strip(slow.drain()) == strip(fast.drain())

    def test_disabled_trace_detaches(self):
        trace = DecisionTrace(capacity=16)
        service = self._service(trace)
        service.attach_telemetry(None)
        assert service._trace is None  # one is-None check on the hot path
        self._drive(service.offer_fast)
        assert len(trace) == 0 and trace.next_seq == 0


class TestCoordinationEmission:
    def test_adaptive_reallocation_emits_event(self):
        trace = DecisionTrace(capacity=16)
        policy = AdaptiveAllocation()
        policy.attach_trace(trace, task="cpu")
        current = policy.initial(2, 0.05)
        reports = [CoordinationStats(avg_cost_reduction=0.5,
                                     avg_error_needed=0.04,
                                     observations=10),
                   CoordinationStats(avg_cost_reduction=0.01,
                                     avg_error_needed=0.04,
                                     observations=10)]
        update = policy.reallocate(current, reports, 0.05)
        assert update.reallocated
        events = trace.drain()
        assert len(events) == 1
        event = events[0]
        assert event["kind"] == "allowance_reallocated"
        assert event["task"] == "cpu"
        assert event["allocations"] == list(update.allocations)
        assert event["total_error"] == 0.05

    def test_throttled_round_stays_silent(self):
        trace = DecisionTrace(capacity=16)
        policy = AdaptiveAllocation()
        policy.attach_trace(trace)
        current = policy.initial(2, 0.05)
        same = [CoordinationStats(avg_cost_reduction=0.5,
                                  avg_error_needed=0.04,
                                  observations=10)] * 2
        update = policy.reallocate(current, same, 0.05)
        assert not update.reallocated
        assert trace.drain() == []

    def test_detached_policy_pays_one_none_check(self):
        policy = AdaptiveAllocation()
        policy.attach_trace(DecisionTrace(capacity=16), task="cpu")
        policy.attach_trace(None)
        assert policy._trace is None


def test_runtime_kinds_are_documented():
    sampler_kinds = {"interval_adapted", "violation"}
    assert sampler_kinds <= set(TRACE_EVENT_KINDS)
    assert "allowance_reallocated" in TRACE_EVENT_KINDS
    assert "checkpoint_written" in TRACE_EVENT_KINDS
