"""Tests for the decision-trace ring buffer and its emission seams."""

from __future__ import annotations

import json

import pytest

from repro.core.adaptation import CoordinationStats
from repro.core.coordination import AdaptiveAllocation
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.telemetry.trace import (NULL_TRACE, DecisionTrace, NullTrace,
                                   TRACE_EVENT_KINDS)


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
        with pytest.raises(ValueError):
            trace.drain(since=-1)

    def test_drain_is_non_destructive(self):
        trace = DecisionTrace(capacity=4)
        trace.emit("restore")
        assert len(trace.drain()) == 1
        assert len(trace.drain()) == 1

    def test_dump_and_to_jsonl(self, tmp_path):
        trace = DecisionTrace(capacity=8)
        trace.emit("violation", task="a", value=5.0)
        trace.emit("shed", shard=2, count=7)
        path = trace.dump_jsonl(tmp_path / "sub" / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == \
            ["violation", "shed"]
        assert trace.to_jsonl() == path.read_text()
        assert json.loads(lines[1])["shard"] == 2

    @pytest.mark.parametrize("held,batch", [
        (0, 0), (0, 3), (2, 5),   # fits the free room (8 - held)
        (5, 3), (5, 4),           # fills it exactly / straddles it
        (8, 2), (3, 8),           # full ring / a batch of the capacity
        (3, 11), (8, 30)])        # more than the ring holds
    def test_emit_batch_is_emit_in_a_loop(self, held, batch):
        def event(i, stamped):
            data = {"step": i, "value": i / 2, "threshold": 1.5}
            kind = "violation" if i % 3 else "interval_adapted"
            task = f"t{i % 2}" if i % 4 else None
            if not stamped:
                return (kind,), dict(task=task, shard=7, **data)
            built = {"seq": None, "ts_monotonic": None, "kind": kind,
                     "task": task, "shard": 7, **data}
            if task is None:
                del built["task"]
            return built

        one_by_one, batched = DecisionTrace(8), DecisionTrace(8)
        for trace in (one_by_one, batched):
            for i in range(held):
                trace.emit("shed", count=i)
        for i in range(batch):
            args, kwargs = event(i, stamped=False)
            one_by_one.emit(*args, **kwargs)
        first = batched.emit_batch([event(i, stamped=True)
                                    for i in range(batch)])
        assert first == held
        assert batched.next_seq == one_by_one.next_seq == held + batch
        assert batched.dropped == one_by_one.dropped
        assert len(batched) == len(one_by_one)
        got, want = batched.drain(), one_by_one.drain()
        assert [list(e) for e in got] == [list(e) for e in want]  # key order
        stamps = {e["ts_monotonic"] for e in got if e["seq"] >= held}
        assert len(stamps) <= 1                     # one clock read
        for e in got + want:
            del e["ts_monotonic"]
        assert got == want
        assert NullTrace().emit_batch([{"kind": "shed"}]) == 0

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            DecisionTrace(capacity=0)

    def test_null_trace_is_inert(self):
        null = NullTrace()
        assert null.emit("violation", task="x", step=1) == 0
        assert null.drain() == []
        assert null.to_jsonl() == ""
        assert len(null) == 0
        assert not NULL_TRACE.enabled
        assert DecisionTrace().enabled


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
        service = self._service(NULL_TRACE)
        assert service._trace is None  # one is-None check on the hot path
        self._drive(service.offer_fast)


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
        policy.attach_trace(NULL_TRACE)
        assert policy._trace is None


def test_runtime_kinds_are_documented():
    sampler_kinds = {"interval_adapted", "violation"}
    assert sampler_kinds <= set(TRACE_EVENT_KINDS)
    assert "allowance_reallocated" in TRACE_EVENT_KINDS
    assert "checkpoint_written" in TRACE_EVENT_KINDS
