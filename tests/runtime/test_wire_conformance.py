"""Wire conformance: one request table, two servers, equal replies.

``RuntimeServer`` and ``ClusterServer`` share the
:class:`~repro.runtime.frontend.WireServer` front end, so every reply a
client can provoke — validation errors above all — must be the same dict
on both. Each case below is a script of frames sent on one fresh
connection to a runtime and to an in-proc cluster that were set up
identically; the two reply lists must be equal, modulo the documented
cluster-only keys (``workers`` in ``ping``, ``cluster`` in ``stats``) and
the wall-clock ``uptime_s``.

The table is the parity contract: a new op or a new validation rule gets
a row here rather than a hand-written runtime-vs-cluster test. What the
*backends* do with valid traffic (sampler state, counters, checkpoints)
is covered by the bit-for-bit state tests in ``tests/cluster``.
"""

from __future__ import annotations

import asyncio
from typing import Any

import pytest

from repro.cluster.routing import route
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.core.soa import STEP_MAX, STEP_MIN
from repro.runtime.protocol import (OfferReply, encode_frame,
                                    encode_offer_columns, read_frame)
from repro.runtime.server import RuntimeServer

SHARDS = 4
MAX_BATCH = 16

# Two tasks on one shard (a third, ``SAME2``, for the rows that register
# it) and one on another, found by the routing function itself so the
# table does not depend on the golden values.
_NAMES = [f"task-{i}" for i in range(32)]
A = _NAMES[0]
SAME, SAME2 = [n for n in _NAMES[1:]
               if route(n, SHARDS) == route(A, SHARDS)][:2]
OTHER = next(n for n in _NAMES if route(n, SHARDS) != route(A, SHARDS))

PLAN = {"target": OTHER, "trigger": A, "elevation_level": 60.0,
        "suspend_interval": 6, "hysteresis": 0.1, "min_hold": 2}

HELLO = {"op": "hello", "max_protocol": 2}

# The two ways to install the one gate on ``A`` — undebounced on
# ``SAME``, its own shard's, or debounced on ``OTHER`` (another shard) —
# a plan that has ``SAME`` watched for ``SAME2`` at another level, one
# that has it watched for ``OTHER``, and the reads that show every
# shard's side of them.
LOCAL_GATE = {"op": "add_trigger", "target": A, "trigger": SAME,
              "elevation_level": 50.0, "suspend_interval": 10}
CROSS_PLAN = {**PLAN, "target": A, "trigger": OTHER,
              "elevation_level": 95.0, "suspend_interval": 5}
SHARED_PLAN = {**PLAN, "target": SAME2, "trigger": SAME,
               "elevation_level": 95.0}
REMOTE_PLAN = {**PLAN, "target": OTHER, "trigger": SAME,
               "elevation_level": 50.0}
_GATES = [{"op": "trigger_state", "task": A},
          {"op": "trigger_state", "task": SAME},
          {"op": "trigger_state", "task": OTHER},
          {"op": "trigger_plans"}]


def _task(name: str, **extra: Any) -> dict[str, Any]:
    return {"op": "register_task",
            "task": {"name": name, "threshold": 100.0, **extra}}


def _columns(idx: list[int], step: int = 0) -> tuple[bytes, bytes]:
    return encode_offer_columns(idx, [step] * len(idx), [1.0] * len(idx))


def _per_task(op: str, **extra: Any) -> list[dict[str, Any]]:
    return [{"op": op, "task": "ghost", **extra}]


# case id -> frames; a frame is a request dict or a pre-encoded binary
# ``(header, body)`` pair.
CASES: dict[str, list[Any]] = {
    # -- negotiation ----------------------------------------------------
    "hello-ok": [HELLO],
    "hello-default": [{"op": "hello"}],
    "hello-above-server-max": [{"op": "hello", "max_protocol": 99}],
    "hello-non-integer": [{"op": "hello", "max_protocol": "two"}],
    "hello-null": [{"op": "hello", "max_protocol": None}],
    # -- interning ------------------------------------------------------
    "intern-ok": [HELLO, {"op": "intern", "tasks": [[0, A], [3, OTHER]]}],
    "intern-missing-tasks": [{"op": "intern"}],
    "intern-tasks-not-a-list": [{"op": "intern", "tasks": {"0": A}}],
    "intern-entry-not-a-pair": [{"op": "intern", "tasks": [[0, A, 1]]}],
    "intern-entry-not-a-list": [{"op": "intern", "tasks": [A]}],
    "intern-null-name": [{"op": "intern", "tasks": [[0, None]]}],
    "intern-numeric-name": [{"op": "intern", "tasks": [[0, 123]]}],
    "intern-bool-index": [{"op": "intern", "tasks": [[True, A]]}],
    "intern-string-index": [{"op": "intern", "tasks": [["0", A]]}],
    "intern-negative-index": [{"op": "intern", "tasks": [[-1, A]]}],
    "intern-index-past-cap": [{"op": "intern", "tasks": [[1 << 20, A]]}],
    "intern-bad-entry-applies-nothing": [
        HELLO, {"op": "intern", "tasks": [[0, A], [1, None]]},
        _columns([0])],
    # -- JSON offers ----------------------------------------------------
    "offer-ok": [{"op": "offer_batch", "updates": [[A, 0, 1.0],
                                                   [OTHER, 0, 2]]}],
    "offer-unknown-task-rejected": [
        {"op": "offer_batch", "updates": [[A, 1, 1.0], ["ghost", 1, 1.0]]}],
    "offer-missing-updates": [{"op": "offer_batch"}],
    "offer-updates-not-a-list": [{"op": "offer_batch", "updates": "x"}],
    "offer-update-too-short": [{"op": "offer_batch", "updates": [[A, 1]]}],
    "offer-update-not-a-list": [{"op": "offer_batch", "updates": [A]}],
    "offer-non-numeric-step": [
        {"op": "offer_batch", "updates": [[A, "soon", 1.0]]}],
    "offer-non-numeric-value": [
        {"op": "offer_batch", "updates": [[A, 0, "high"]]}],
    "offer-bool-step": [{"op": "offer_batch", "updates": [[A, True, 1.0]]}],
    "offer-null-value": [{"op": "offer_batch", "updates": [[A, 0, None]]}],
    "offer-bad-update-enqueues-nothing": [
        {"op": "offer_batch", "updates": [[A, 5, 1.0], [A, 6, "x"]]},
        {"op": "stats"}],
    "offer-batch-too-large": [
        {"op": "offer_batch", "updates": [[A, 0, 1.0]] * (MAX_BATCH + 1)}],
    # Steps the engine's int64 columns cannot hold with room left for
    # `step + interval` (repro.core.soa.STEP_MIN..STEP_MAX, half the
    # int64 range) are refused at the decode point, as a frame: nothing
    # of it may be ACKed and then fail inside a shard.
    "offer-infinite-step": [
        {"op": "offer_batch", "updates": [[A, 5, 1.0],
                                          [A, float("inf"), 1.0]]},
        {"op": "stats"}],
    "offer-nan-step": [
        {"op": "offer_batch", "updates": [[A, float("nan"), 1.0]]},
        {"op": "stats"}],
    "offer-step-past-int64": [
        {"op": "offer_batch", "updates": [[OTHER, 5, 1.0],
                                          [A, 2 ** 63, 1.0]]},
        {"op": "stats"}],
    "offer-step-below-int64": [
        {"op": "offer_batch", "updates": [[A, -2 ** 63 - 1, 1.0]]},
        {"op": "stats"}],
    "offer-float-step-past-int64": [
        {"op": "offer_batch", "updates": [[A, 1e19, 1.0]]},
        {"op": "stats"}],
    "offer-value-past-double": [
        {"op": "offer_batch", "updates": [[A, 0, 10 ** 400]]},
        {"op": "stats"}],
    "offer-step-at-int64-edge": [
        {"op": "offer_batch", "updates": [[OTHER, 5, 1.0],
                                          [A, 2 ** 63 - 1, 1.0]]},
        {"op": "stats"}],
    "offer-step-past-bound": [
        {"op": "offer_batch", "updates": [[A, STEP_MAX + 1, 1.0]]},
        {"op": "stats"}],
    "offer-step-below-bound": [
        {"op": "offer_batch", "updates": [[A, STEP_MIN - 1, 1.0]]},
        {"op": "stats"}],
    "offer-step-bounds-and-float-steps-ok": [
        {"op": "offer_batch", "updates": [[A, STEP_MIN, 1.0], [SAME, 3.0, 1],
                                          [OTHER, 2.75, 1.0]]},
        {"op": "offer_batch", "updates": [[A, STEP_MAX, 1.0]]}],
    # A non-finite *value* is a well-formed update: ACKed on the wire,
    # then refused (counted rejected) by the shard's service.
    "offer-non-finite-value-acked": [
        {"op": "offer_batch", "updates": [[A, 0, float("nan")],
                                          [OTHER, 0, float("inf")]]}],
    # -- binary offers --------------------------------------------------
    "binary-before-hello": [_columns([0]), {"op": "ping"}],
    "binary-after-v1-hello": [{"op": "hello", "max_protocol": 1},
                              _columns([0])],
    "binary-ok": [HELLO, {"op": "intern", "tasks": [[0, A], [1, OTHER]]},
                  _columns([0, 1, 0])],
    "binary-index-out-of-range": [
        HELLO, {"op": "intern", "tasks": [[0, A]]}, _columns([0, 7])],
    "binary-empty-intern-table": [HELLO, _columns([0, 1])],
    "binary-never-interned-slot": [
        HELLO, {"op": "intern", "tasks": [[2, A]]}, _columns([0, 1, 2])],
    "binary-unregistered-name": [
        HELLO, {"op": "intern", "tasks": [[0, A], [1, "ghost"]]},
        _columns([0, 1])],
    "binary-name-registered-after-intern": [
        HELLO, {"op": "intern", "tasks": [[0, "late"]]}, _columns([0]),
        _task("late"), _columns([0])],
    "binary-name-removed-after-intern": [
        HELLO, {"op": "intern", "tasks": [[0, SAME]]},
        {"op": "remove_task", "task": SAME}, _columns([0])],
    "binary-batch-too-large": [
        HELLO, {"op": "intern", "tasks": [[0, A]]},
        _columns([0] * (MAX_BATCH + 1))],
    "binary-step-at-int64-edge": [
        HELLO, {"op": "intern", "tasks": [[0, A]]},
        _columns([0], step=2 ** 63 - 1), {"op": "stats"}],
    "binary-step-bounds-ok": [
        HELLO, {"op": "intern", "tasks": [[0, A]]},
        _columns([0], step=STEP_MIN), _columns([0], step=STEP_MAX)],
    # -- dispatch -------------------------------------------------------
    "unknown-op": [{"op": "resharden"}],
    "missing-op": [{"task": A}],
    "non-string-op": [{"op": 5}],
    "ping": [{"op": "ping"}],
    # -- unknown task, on every per-task op -----------------------------
    "unknown-task-remove": _per_task("remove_task"),
    "unknown-task-due": _per_task("due", step=3),
    "unknown-task-task-info": _per_task("task_info"),
    "unknown-task-alerts": _per_task("alerts"),
    "unknown-task-trigger-arm": _per_task("trigger_arm"),
    "unknown-task-trigger-disarm": _per_task("trigger_disarm"),
    "unknown-task-trigger-state": _per_task("trigger_state"),
    "unknown-task-missing-field": [{"op": "task_info"}],
    "unknown-task-add-trigger-target": [
        {"op": "add_trigger", "target": "ghost", "trigger": A}],
    "unknown-task-add-trigger-trigger": [
        {"op": "add_trigger", "target": A, "trigger": "ghost"}],
    "unknown-task-trigger-install": [
        {"op": "trigger_install", "plan": {**PLAN, "trigger": "ghost"}}],
    # -- task control ---------------------------------------------------
    "register-ok": [_task("fresh", error_allowance=0.05)],
    "register-typed-ok": [_task("p99", type="quantile", quantile=0.99)],
    "register-missing-task": [{"op": "register_task"}],
    "register-task-not-a-dict": [{"op": "register_task", "task": "fresh"}],
    "register-unknown-key": [_task("fresh", colour="red")],
    "register-missing-threshold": [
        {"op": "register_task", "task": {"name": "fresh"}}],
    "register-missing-name": [
        {"op": "register_task", "task": {"threshold": 1.0}}],
    "register-bad-aggregate": [_task("fresh", window=4, aggregate="bogus")],
    "register-bad-type": [_task("fresh", type="histogram")],
    "register-quantile-without-q": [_task("fresh", type="quantile")],
    "register-non-numeric-threshold": [
        {"op": "register_task", "task": {"name": "fresh",
                                         "threshold": "high"}}],
    "register-duplicate": [_task(A)],
    "remove-then-reads-fail": [{"op": "remove_task", "task": SAME},
                               {"op": "task_info", "task": SAME},
                               {"op": "remove_task", "task": SAME}],
    # -- reads ----------------------------------------------------------
    "due-ok": [{"op": "due", "task": A, "step": 0}],
    "due-non-integer-step": [{"op": "due", "task": A, "step": "soon"}],
    "task-info-ok": [{"op": "task_info", "task": A}],
    "alerts-ok": [{"op": "alerts", "task": A}],
    "stats": [{"op": "stats"}],
    "trace-bad-since": [{"op": "trace", "since": "yesterday"}],
    "trace-bad-limit": [{"op": "trace", "limit": "few"}],
    "trace-negative-since": [{"op": "trace", "since": -1}],
    "trace-negative-limit": [{"op": "trace", "limit": -2}],
    "checkpoint-not-configured": [{"op": "checkpoint"}],
    # -- triggers -------------------------------------------------------
    "add-trigger-ok": [{"op": "add_trigger", "target": A, "trigger": SAME,
                        "elevation_level": 0.5}],
    "add-trigger-cross-shard": [
        {"op": "add_trigger", "target": A, "trigger": OTHER}],
    "add-trigger-bad-interval": [
        {"op": "add_trigger", "target": A, "trigger": SAME,
         "suspend_interval": "long"}],
    "trigger-install-ok": [{"op": "trigger_install", "plan": PLAN},
                           {"op": "trigger_install", "plan": PLAN},
                           {"op": "trigger_state", "task": OTHER},
                           {"op": "trigger_state", "task": A},
                           {"op": "trigger_plans"}],
    "trigger-install-missing-plan": [{"op": "trigger_install"}],
    "trigger-install-plan-not-a-dict": [
        {"op": "trigger_install", "plan": [A, OTHER]}],
    "trigger-install-invalid-plan": [
        {"op": "trigger_install", "plan": {**PLAN, "suspend_interval": 1}}],
    "trigger-install-unknown-plan-key": [
        {"op": "trigger_install", "plan": {**PLAN, "colour": "red"}}],
    # One gate: a local pair is a plan (listed, its target a guarded
    # task), and installing the gate the other way re-targets it ...
    "add-trigger-is-a-plan": [LOCAL_GATE, LOCAL_GATE, *_GATES],
    "install-over-local-gate": [
        LOCAL_GATE, *_GATES, {"op": "trigger_install", "plan": CROSS_PLAN},
        *_GATES],
    "add-trigger-over-install": [
        {"op": "trigger_install", "plan": CROSS_PLAN}, *_GATES, LOCAL_GATE,
        *_GATES],
    # ... a trigger task carries one watch, hence one level: a second
    # level on one another task is guarded on is refused before any
    # shard is written (reads before and after the refusal agree).
    "add-trigger-over-guard": [
        _task(SAME2), {"op": "trigger_install", "plan": SHARED_PLAN},
        *_GATES, LOCAL_GATE, *_GATES],
    # ... on every path: a plan for another target, here on another
    # shard than the trigger and the guard it would re-level ...
    "install-over-guard": [
        _task(SAME2), {"op": "trigger_install", "plan": SHARED_PLAN},
        *_GATES, {"op": "trigger_install", "plan": REMOTE_PLAN}, *_GATES],
    # ... and a gate whose trigger's shard cannot see the guard it would
    # re-level, because that guard's target lives on another shard.
    "install-over-remote-guard": [
        {"op": "trigger_install", "plan": PLAN}, *_GATES,
        {"op": "trigger_install", "plan": {**PLAN, "target": SAME,
                                           "elevation_level": 95.0}},
        *_GATES],
    "add-trigger-over-remote-guard": [
        {"op": "trigger_install", "plan": {**REMOTE_PLAN,
                                           "elevation_level": 95.0}},
        *_GATES, LOCAL_GATE, *_GATES],
    # Removing a task drops every plan it was an end of; a target whose
    # trigger went — here on another shard — is re-armed.
    "remove-a-plans-trigger": [
        {"op": "trigger_install", "plan": PLAN},
        {"op": "trigger_disarm", "task": OTHER},
        {"op": "remove_task", "task": A}, *_GATES[2:]],
    "remove-a-plans-target": [
        {"op": "trigger_install", "plan": PLAN},
        {"op": "remove_task", "task": OTHER}, *_GATES],
    "remove-a-local-pairs-trigger": [
        LOCAL_GATE, {"op": "trigger_disarm", "task": A},
        {"op": "remove_task", "task": SAME}, *_GATES],
    "trigger-arm-unguarded-task": [{"op": "trigger_arm", "task": A}],
    "trigger-overrides": [{"op": "trigger_install", "plan": PLAN},
                          {"op": "trigger_disarm", "task": OTHER},
                          {"op": "trigger_disarm", "task": OTHER},
                          {"op": "trigger_arm", "task": OTHER},
                          {"op": "trigger_plans"}],
}

_BACKEND_KEYS = ("workers", "cluster", "uptime_s")


def _comparable(reply: Any) -> Any:
    if isinstance(reply, OfferReply):
        return {name: getattr(reply, name) for name in OfferReply.__slots__}
    if isinstance(reply, dict):
        return {k: v for k, v in reply.items() if k not in _BACKEND_KEYS}
    return reply


async def _run_script(server: Any, frames: list[Any]) -> list[Any]:
    """Set the server up, play ``frames`` on one fresh connection."""
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.tcp_port)
        replies = []
        try:
            setup = [_task(A), _task(SAME), _task(OTHER)]
            for frame in setup + frames:
                if isinstance(frame, dict):
                    writer.write(encode_frame(frame))
                else:
                    writer.writelines(frame)
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 10)
                replies.append(_comparable(reply))
                if reply is None:
                    break  # the server closed the connection
            # A protocol error closes the connection after its reply; a
            # script that provoked one must observe the close, too.
            if replies and isinstance(replies[-1], dict) \
                    and replies[-1].get("code") == "protocol":
                replies.append(await asyncio.wait_for(read_frame(reader),
                                                      10))
        finally:
            writer.close()
        await server.drain()
        return replies[len(setup):]
    finally:
        await server.shutdown()


def _runtime(**extra: Any) -> RuntimeServer:
    return RuntimeServer(RuntimeConfig(port=0, shards=SHARDS,
                                       max_batch=MAX_BATCH, **extra))


def _cluster(**extra: Any) -> ClusterServer:
    return ClusterServer(ClusterConfig(
        backend="inproc", workers=2, shards=SHARDS, port=0,
        max_batch=MAX_BATCH, **extra))


@pytest.mark.parametrize("case", sorted(CASES))
def test_runtime_and_cluster_answer_alike(case):
    frames = CASES[case]
    on_runtime = asyncio.run(_run_script(_runtime(), frames))
    on_cluster = asyncio.run(_run_script(_cluster(), frames))
    # Every frame was answered, unless a protocol error ended the
    # conversation (then the close itself, ``None``, was observed).
    assert len(on_runtime) == len(frames) or on_runtime[-1] is None
    assert on_runtime == on_cluster


REFUSED_STEPS = ("offer-infinite-step", "offer-nan-step",
                 "offer-step-past-int64", "offer-step-below-int64",
                 "offer-float-step-past-int64", "offer-value-past-double",
                 "offer-step-at-int64-edge", "offer-step-past-bound",
                 "offer-step-below-bound", "binary-step-at-int64-edge")


@pytest.mark.parametrize("case", REFUSED_STEPS)
def test_unrepresentable_update_is_refused_before_ack(case):
    """Equal replies are not enough here: both servers used to ACK these
    frames alike and then lose the whole batch in the shard."""
    *_, refusal, stats = asyncio.run(_run_script(_runtime(), CASES[case]))
    assert not refusal["ok"] and refusal["code"] == "bad-update"
    totals = stats["totals"]
    assert totals["offered"] == totals["rejected"] == totals["shed"] == 0


@pytest.mark.parametrize("make_server", [_runtime, _cluster],
                         ids=["runtime", "cluster"])
@pytest.mark.parametrize("case", ["trace-negative-since",
                                  "trace-negative-limit"])
def test_a_negative_trace_cursor_is_refused(case, make_server):
    """Equal replies are not enough: both servers used to answer a
    negative ``limit`` with all but the newest events."""
    refusal, = asyncio.run(_run_script(make_server(), CASES[case]))
    assert not refusal["ok"] and refusal["code"] == "bad-request"
    assert case.rsplit("-", 1)[1] in refusal["error"]


@pytest.mark.parametrize("make_server", [_runtime, _cluster],
                         ids=["runtime", "cluster"])
@pytest.mark.parametrize("case", ["add-trigger-over-guard",
                                  "install-over-guard",
                                  "install-over-remote-guard",
                                  "add-trigger-over-remote-guard"])
def test_second_gate_is_refused(case, make_server):
    """... when it would be a second level on a watched trigger. Equal
    replies on both servers are not enough: the refusal has to come
    before the first write, and leave no plan behind. (Both servers used
    to accept the last three and silently re-level the first target's
    guard.)"""
    replies = asyncio.run(_run_script(make_server(), CASES[case]))
    *setup, refusal = replies[:-len(_GATES)]
    before, after = setup[-len(_GATES):], replies[-len(_GATES):]
    assert all(reply["ok"] for reply in setup)
    assert not refusal["ok"] and refusal["code"] == "bad-request"
    assert "one level" in refusal["error"]
    assert after == before
    assert len(after[-1]["plans"]) == 1


@pytest.mark.parametrize("make_server", [_runtime, _cluster],
                         ids=["runtime", "cluster"])
def test_the_other_way_round_is_a_re_target(make_server):
    for case, was, now in (("install-over-local-gate", SAME, OTHER),
                           ("add-trigger-over-install", OTHER, SAME)):
        replies = asyncio.run(_run_script(make_server(), CASES[case]))
        assert all(reply["ok"] for reply in replies)
        before, after = replies[1], replies[len(_GATES) + 2]
        assert (before["state"]["trigger"], after["state"]["trigger"]) == (
            was, now)
        assert [(plan["target"], plan["trigger"])
                for plan in replies[-1]["plans"]] == [(A, now)]


@pytest.mark.parametrize("make_server", [_runtime, _cluster],
                         ids=["runtime", "cluster"])
def test_removing_a_plans_end_drops_the_plan(make_server):
    """Equal replies are not enough: both servers used to keep the plan
    of a task that no longer exists, and a target on another shard than
    its removed trigger stayed parked with no edge source left."""
    *_, target, plans = asyncio.run(_run_script(
        make_server(), CASES["remove-a-plans-trigger"]))
    assert target["state"] == {"trigger": A, "armed": True,
                               "suspend_interval": 6, "suspensions": 0}
    assert plans["ok"] and plans["plans"] == []
    *_, trigger, _, _, plans = asyncio.run(_run_script(
        make_server(), CASES["remove-a-plans-target"]))
    assert trigger["state"]["watch"]["level"] == 60.0
    assert plans["plans"] == []
    *_, disarmed, removed, target, _, _, plans = asyncio.run(_run_script(
        make_server(), CASES["remove-a-local-pairs-trigger"]))
    assert disarmed["was_armed"] and removed["ok"]
    assert target["state"] == {} and plans["plans"] == []


def test_table_provokes_every_error_code():
    """The table is only a contract if it reaches every client-facing
    code; a new code needs a row."""
    async def collect() -> set[str]:
        codes: set[str] = set()
        for frames in CASES.values():
            for reply in await _run_script(_runtime(), frames):
                if isinstance(reply, dict) and not reply.get("ok", True):
                    codes.add(reply["code"])
        return codes

    assert asyncio.run(collect()) == {
        "protocol", "unknown-op", "unknown-task", "cross-shard-trigger",
        "batch-too-large", "bad-update", "bad-request"}


# -- the checkpointer (one, in the front end) ---------------------------
# These replies carry wall-clock ages and a whole metrics snapshot, so
# each row states what must hold of them instead of comparing the two
# servers' dicts; every row is sent to both.

_CHECKPOINT_FAMILIES = {"volley_checkpoint_failures_total": "counter",
                        "volley_checkpoint_age_seconds": "gauge",
                        "volley_checkpoint_write_seconds": "histogram"}


def _stats_block(replies: list[Any]) -> None:
    assert replies[0]["checkpoint"] == {"failures": 0, "last_age_s": None}


def _telemetry_families(replies: list[Any]) -> None:
    metrics = replies[0]["metrics"]
    assert {name: metrics[name]["kind"]
            for name in _CHECKPOINT_FAMILIES} == _CHECKPOINT_FAMILIES
    assert all(len(metrics[name]["series"]) == 1
               for name in _CHECKPOINT_FAMILIES)


def _age_resets(replies: list[Any]) -> None:
    before, written, after, telemetry = replies
    assert before["checkpoint"]["last_age_s"] is None
    assert written["ok"] and written["path"].endswith("conformance.ckpt")
    assert after["checkpoint"]["failures"] == 0
    assert 0.0 <= after["checkpoint"]["last_age_s"] < 5.0
    write, = telemetry["metrics"][
        "volley_checkpoint_write_seconds"]["series"]
    assert write["value"]["count"] == 1


SHELL_CASES: dict[str, tuple[list[Any], Any]] = {
    "stats-checkpoint-block": ([{"op": "stats"}], _stats_block),
    "telemetry-checkpoint-families": ([{"op": "telemetry"}],
                                      _telemetry_families),
    "checkpoint-resets-age": ([{"op": "stats"}, {"op": "checkpoint"},
                               {"op": "stats"}, {"op": "telemetry"}],
                              _age_resets),
}


@pytest.mark.parametrize("make_server", [_runtime, _cluster],
                         ids=["runtime", "cluster"])
@pytest.mark.parametrize("case", sorted(SHELL_CASES))
def test_checkpointer_answers_alike(case, make_server, tmp_path):
    frames, check = SHELL_CASES[case]
    server = make_server(checkpoint_path=tmp_path / "conformance.ckpt",
                         checkpoint_interval=3600.0)
    check(asyncio.run(_run_script(server, frames)))
