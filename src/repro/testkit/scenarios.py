"""Chaos scenario matrix against the live runtime (DESIGN.md S28).

Each scenario boots a real :class:`~repro.runtime.server.RuntimeServer`
in-process (real sockets, real frames, real shard drain loops) with a
:class:`~repro.testkit.faults.PlanFaultHook` wired through every seam,
feeds it a seeded workload, and maintains a **shadow reference**: per-shard
:class:`~repro.service.MonitoringService` instances the driver advances
itself by *replaying the same deterministic fault schedule* the in-server
hook executes. Because every fault decision is a pure function of
``(seed, seam, index)``, the driver knows — without peeking at server
internals mid-flight — exactly which batches were shed, which frames
never arrived, which applies were faulted and which updates a crash
voided. At every barrier the server's state must match the shadow
bit-for-bit.

Determinism contract: a scenario's conformance report is a pure function
of ``(scenario, seed)`` — no timestamps, ports, paths, or
scheduling-dependent counters appear in it — so two runs of
``python -m repro.testkit --scenario crashy --seed 7`` emit byte-identical
reports, and any failure reproduces from the pair alone
(see docs/TESTING.md).

Time is virtual: the workload advances a
:class:`~repro.simulation.clock.SimulationClock` along the grid, crashes
happen at plan-chosen grid steps, and checkpoints are taken at fixed
barriers — no wall-clock sleeps anywhere.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import logging
import pathlib
import sys
import tempfile
from typing import Any

import numpy as np

from repro.cluster.routing import route
from repro.config import RuntimeConfig, task_from_config
from repro.core.adaptation import AdaptationConfig
from repro.core.coordination import AdaptiveAllocation
from repro.runtime.checkpoint import (_jsonable, read_checkpoint,
                                      state_fingerprint)
from repro.runtime.protocol import encode_frame, read_frame
from repro.runtime.server import RuntimeServer
from repro.runtime.shard import SHARD_COUNTERS
from repro.service import MonitoringService
from repro.simulation.clock import SimulationClock
from repro.testkit.faults import (FRAME_CORRUPT, FRAME_DROP, FRAME_OK,
                                  FRAME_TRUNCATE, FaultPlan, FaultSpec,
                                  PlanFaultHook)
from repro.testkit.invariants import (InvariantResult,
                                      check_allowance_conservation,
                                      check_misdetection_bound,
                                      check_no_acked_loss,
                                      check_restore_bit_identical)

__all__ = ["SCENARIOS", "run_scenario", "run_matrix", "render_report",
           "main"]

# Workload shape shared by every scenario (small enough for CI, long
# enough for adaptation, crashes and several checkpoint barriers).
TASKS = [f"task-{i:02d}" for i in range(8)]
THRESHOLD = 100.0
ERR = 0.05
MAX_INTERVAL = 8
SHARDS = 4
STEPS = 240
BARRIER_EVERY = 60
ADAPTATION = {"patience": 5, "min_samples": 5, "stats_restart": 100}

SCENARIOS: dict[str, FaultSpec] = {
    # Fault-free baseline: the full pipeline and every barrier check must
    # pass with nothing injected (a harness that only passes under faults
    # is broken).
    "clean": FaultSpec(),
    # Shard apply faults + duplicated deliveries + two hard crashes with
    # restart-from-checkpoint.
    "crashy": FaultSpec(shard_error_rate=0.02,
                        duplicate_frame_rate=0.05,
                        crash_fractions=(0.35, 0.7)),
    # Damaged checkpoint writes (torn / corrupted / OSError) and one hard
    # crash — recovery must reject damaged files and fall back to the
    # newest valid checkpoint.
    "corrupt-checkpoint": FaultSpec(torn_checkpoint_rate=0.35,
                                    corrupt_checkpoint_rate=0.3,
                                    checkpoint_oserror_rate=0.25,
                                    crash_fractions=(0.5,)),
    # Lossy wire: dropped connections, truncated and corrupted frames,
    # duplicated deliveries, skewed collector clocks.
    "flaky-network": FaultSpec(drop_connection_rate=0.04,
                               truncate_frame_rate=0.03,
                               corrupt_frame_rate=0.03,
                               duplicate_frame_rate=0.08,
                               clock_skew_rate=0.05,
                               clock_skew_max=2),
    # Queue-saturation bursts: deterministic forced sheds exercise the
    # backpressure reply path without depending on event-loop timing.
    "overload": FaultSpec(force_shed_rate=0.12),
}


def scenario_trace(name: str, seed: int) -> np.ndarray:
    """The scenario's metric stream: ``(STEPS, len(TASKS))`` floats.

    Quiet band around 70 (so samplers grow their intervals) with three
    bursts crossing the 100.0 threshold (so alert streams, and therefore
    sampler statistics, are non-trivial in every phase of the run).
    """
    digest = hashlib.blake2b(f"{seed}:{name}".encode("utf-8"),
                             digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    values = rng.normal(70.0, 2.0, (STEPS, len(TASKS)))
    values[40:55] += 38.0
    values[150:165] += 38.0
    values[210:220] += 38.0
    return values


async def _roundtrip(port: int, payload: dict[str, Any],
                     ) -> dict[str, Any] | None:
    """One request on a fresh connection; ``None`` when the server closed
    the connection without replying (a dropped-frame fault)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_frame(payload))
        await writer.drain()
        return await read_frame(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _group_by_shard(batch: list[list[Any]],
                    shards: int) -> dict[int, list[list[Any]]]:
    """Replica of the server's per-shard grouping, iteration order
    included: the front end routes a frame's decoded columns shard by
    shard in ascending shard id (``WireServer._route``), which is the
    order the ``force_shed`` seam is consulted in."""
    per_shard: dict[int, list[list[Any]]] = {}
    for update in batch:
        per_shard.setdefault(route(str(update[0]), shards),
                             []).append(update)
    return dict(sorted(per_shard.items()))


class _ScenarioDriver:
    """One scenario run: live server + fault hook + shadow reference."""

    def __init__(self, name: str, seed: int, workdir: pathlib.Path):
        self.name = name
        self.seed = seed
        self.spec = SCENARIOS[name]
        self.plan = FaultPlan(seed, self.spec)
        self.hook = PlanFaultHook(self.plan)
        self.hook.armed = False
        self.hook.checkpoint_armed = False
        self.ckpt_path = workdir / "checkpoint.json"
        self.adaptation = AdaptationConfig(**ADAPTATION)
        self.clock = SimulationClock()
        self.trace = scenario_trace(name, seed)
        # Shadow reference: per-shard services the driver advances itself.
        self.shadow: list[MonitoringService] = []
        # The shard ledger as predicted, under its short keys.
        self.predicted = [{counter.short: 0 for counter in SHARD_COUNTERS}
                          for _ in range(SHARDS)]
        for shard in range(SHARDS):
            service = MonitoringService(self.adaptation)
            self.shadow.append(service)
        # Driver-side replay counters (mirror the hook's seam counters).
        self._frame_i = 0
        self._dup_i = 0
        self._shed_i = 0
        self._apply_i = [0] * SHARDS
        # Newest durable good state: (shadow snapshots as JSON text,
        # predicted counters, checkpoint file bytes).
        self._stash: tuple[str, list[dict[str, int]], bytes] | None = None
        # Report accumulators.
        self.frames_sent = 0
        self.wire_mismatches: list[str] = []
        self.counter_mismatches: list[str] = []
        self.identity_mismatches: list[str] = []
        self.checkpoint_outcomes: list[str] = []
        self.barrier_checks = 0
        self.crash_restores = 0

    # -- shadow plumbing -------------------------------------------------

    def _attach_alert_hook(self, shard: int) -> Any:
        def hook(alert: Any, _shard: int = shard) -> None:
            self.predicted[_shard]["alerts"] += 1
        return hook

    def _register_shadow(self, entry: dict[str, Any]) -> None:
        spec = task_from_config(dict(entry), {})
        shard = route(spec.name, SHARDS)
        self.shadow[shard].add_task(spec.name, spec,
                                    on_alert=self._attach_alert_hook(shard),
                                    window=1, config=self.adaptation)

    def _shadow_apply(self, shard: int, items: list[list[Any]]) -> None:
        """Replay one enqueued batch exactly as the shard drain loop will."""
        index = self._apply_i[shard]
        self._apply_i[shard] += 1
        counters = self.predicted[shard]
        if self.plan.shard_fault(shard, index):
            counters["rejected"] += len(items)
            return
        service = self.shadow[shard]
        for name, step, value in items:
            decision = service.offer(str(name), float(value), int(step))
            counters["applied"] += 1
            if decision is not None:
                counters["consumed"] += 1

    def _dispatch_shadow(self, batch: list[list[Any]]) -> int:
        """Replay one decoded offer_batch dispatch; returns updates acked."""
        acked = 0
        for shard, items in _group_by_shard(batch, SHARDS).items():
            shed = self.plan.force_shed(self._shed_i)
            self._shed_i += 1
            if shed:
                self.predicted[shard]["shed"] += len(items)
            else:
                self.predicted[shard]["offered"] += len(items)
                acked += len(items)
                self._shadow_apply(shard, items)
        return acked

    def _shadow_fingerprints(self) -> list[str]:
        return [state_fingerprint(s.snapshot()) for s in self.shadow]

    def _stash_good_state(self, file_bytes: bytes) -> None:
        snapshots = json.dumps([s.snapshot() for s in self.shadow],
                               sort_keys=True, default=_jsonable)
        self._stash = (snapshots,
                       [dict(c) for c in self.predicted],
                       file_bytes)

    def _rollback(self) -> None:
        assert self._stash is not None, "crash before any durable checkpoint"
        snapshots, counters, _ = self._stash
        self.shadow = []
        for shard, snapshot in enumerate(json.loads(snapshots)):
            self.shadow.append(MonitoringService.restore(
                snapshot,
                on_alert=lambda _n, _a, _s=shard:
                    self._attach_alert_hook(_s)(_a)))
        self.predicted = [dict(c) for c in counters]

    # -- server plumbing -------------------------------------------------

    def _new_server(self) -> RuntimeServer:
        config = RuntimeConfig(shards=SHARDS, port=0,
                               checkpoint_path=self.ckpt_path,
                               checkpoint_interval=3600.0)
        return RuntimeServer(config, adaptation=self.adaptation,
                             fault_hook=self.hook)

    async def _feed_step(self, server: RuntimeServer, step: int) -> None:
        self.clock.advance_to(float(step))
        batch = []
        for i, name in enumerate(TASKS):
            sent_step = max(0, step + self.plan.skew(i, step))
            batch.append([name, sent_step, float(self.trace[step, i])])
        # Predict the frame's fate, then send it through the real wire.
        # The hook stays armed until the next drain barrier: shard drain
        # loops apply batches asynchronously, and disarming mid-flight
        # would desynchronise apply-time fault decisions from the replay.
        self.hook.armed = True
        fate = self.plan.frame_fault(self._frame_i)
        self._frame_i += 1
        reply = await _roundtrip(server.tcp_port,
                                 {"op": "offer_batch", "updates": batch})
        self.frames_sent += 1
        observed = self._classify_reply(reply)
        if observed != fate:
            self.wire_mismatches.append(
                f"step {step}: predicted {fate}, observed {observed}")
            return
        if fate != FRAME_OK:
            return  # the frame never reached dispatch; nothing was acked
        acked = self._dispatch_shadow(batch)
        if self.plan.duplicate_offer(self._dup_i):
            self._dispatch_shadow(batch)
        self._dup_i += 1
        if reply is not None and reply.get("accepted") != acked:
            self.wire_mismatches.append(
                f"step {step}: server acked {reply.get('accepted')}, "
                f"shadow expected {acked}")

    @staticmethod
    def _classify_reply(reply: dict[str, Any] | None) -> str:
        if reply is None:
            return FRAME_DROP
        if reply.get("ok"):
            return FRAME_OK
        if reply.get("code") == "protocol":
            message = str(reply.get("error", ""))
            return (FRAME_TRUNCATE if "mid-frame" in message
                    else FRAME_CORRUPT)
        return "error"

    async def _barrier(self, server: RuntimeServer,
                       arm_checkpoint: bool) -> None:
        """Drain, audit counters + live bit-identity, take a checkpoint."""
        await server.drain()  # applies run while the hook is still armed
        self.hook.armed = False
        self.barrier_checks += 1
        # Live state must equal the shadow reference bit-for-bit.
        for shard, fingerprint in enumerate(self._shadow_fingerprints()):
            live = state_fingerprint(
                server._workers[shard].service.snapshot())
            if live != fingerprint:
                self.identity_mismatches.append(
                    f"barrier {self.barrier_checks}: shard {shard} live "
                    f"state diverged from shadow")
        # Counter accounting must match the replayed schedule exactly.
        stats = await _roundtrip(server.tcp_port, {"op": "stats"})
        assert stats is not None and stats.get("ok"), stats
        for shard_stats, expected in zip(stats["shards"], self.predicted):
            actual = {counter.short: shard_stats[counter.key]
                      for counter in SHARD_COUNTERS}
            if actual != expected:
                self.counter_mismatches.append(
                    f"barrier {self.barrier_checks}: shard "
                    f"{shard_stats['shard']} counters {actual} != "
                    f"predicted {expected}")
        await self._checkpoint(server, arm_checkpoint)

    async def _checkpoint(self, server: RuntimeServer,
                          arm_checkpoint: bool) -> None:
        self.hook.checkpoint_armed = arm_checkpoint
        reply = await _roundtrip(server.tcp_port, {"op": "checkpoint"})
        self.hook.checkpoint_armed = False
        if reply is None or not reply.get("ok"):
            # Injected write failure (OSError -> CheckpointError). The
            # connection must have survived to deliver the error reply;
            # the previous file is untouched.
            self.checkpoint_outcomes.append("write-error")
            ping = await _roundtrip(server.tcp_port, {"op": "ping"})
            if ping is None or not ping.get("ok"):
                self.identity_mismatches.append(
                    "server unreachable after failed checkpoint write")
            return
        try:
            state = read_checkpoint(self.ckpt_path)
        except Exception:  # noqa: BLE001 - CheckpointError et al.
            # Damaged file correctly rejected by the reader. Fall back to
            # the newest valid checkpoint, as an operator (or a keep-N
            # retention scheme) would.
            self.checkpoint_outcomes.append("rejected")
            if self._stash is not None:
                self.ckpt_path.write_bytes(self._stash[2])
            return
        self.checkpoint_outcomes.append("valid")
        # Durable bit-identity: what hit the disk equals the shadow.
        for shard, fingerprint in enumerate(self._shadow_fingerprints()):
            durable = state_fingerprint(
                state["shards"][str(shard)]["snapshot"])
            if durable != fingerprint:
                self.identity_mismatches.append(
                    f"checkpoint {len(self.checkpoint_outcomes)}: shard "
                    f"{shard} durable state diverged from shadow")
        self._stash_good_state(self.ckpt_path.read_bytes())

    async def _crash_and_restart(self, server: RuntimeServer,
                                 ) -> RuntimeServer:
        """Hard crash; restart from the newest durable valid checkpoint."""
        # Quiesce the queues first so the fault schedule's apply counters
        # advance deterministically, then die without flushing.
        await server.drain()
        self.hook.armed = False
        await server.abort()
        self.crash_restores += 1
        self._rollback()  # everything after the last durable barrier is void
        restarted = self._new_server()
        await restarted.start()
        for shard, fingerprint in enumerate(self._shadow_fingerprints()):
            live = state_fingerprint(
                restarted._workers[shard].service.snapshot())
            if live != fingerprint:
                self.identity_mismatches.append(
                    f"crash {self.crash_restores}: shard {shard} restored "
                    f"state diverged from rolled-back shadow")
        return restarted

    # -- the run ---------------------------------------------------------

    async def run(self) -> dict[str, Any]:
        server = self._new_server()
        await server.start()
        try:
            # Bootstrap: register every task (disarmed) on the wire and in
            # the shadow, then take a guaranteed-valid base checkpoint.
            for name in TASKS:
                entry = {"name": name, "threshold": THRESHOLD,
                         "error_allowance": ERR,
                         "max_interval": MAX_INTERVAL}
                reply = await _roundtrip(server.tcp_port,
                                         {"op": "register_task",
                                          "task": entry})
                assert reply is not None and reply.get("ok"), reply
                self._register_shadow(entry)
            await self._checkpoint(server, arm_checkpoint=False)

            crash_steps = set(self.plan.crash_steps(STEPS))
            barriers = set(range(BARRIER_EVERY, STEPS, BARRIER_EVERY))
            for step in range(STEPS):
                if step in barriers:
                    await self._barrier(server, arm_checkpoint=True)
                if step in crash_steps:
                    old = server
                    server = await self._crash_and_restart(old)
                await self._feed_step(server, step)

            # Final barrier: disarmed checkpoint so the closing state is
            # durable and valid, then score the invariants.
            await self._barrier(server, arm_checkpoint=False)
            ledger_expected, ledger_actual = \
                await self._collect_ledgers(server)
            final_state = read_checkpoint(self.ckpt_path)
            cold_mismatches = await self._cold_restore_check()
        finally:
            await server.shutdown()
        return self._build_report(final_state, ledger_expected,
                                  ledger_actual, cold_mismatches)

    async def _collect_ledgers(self, server: RuntimeServer,
                               ) -> tuple[dict[str, int], dict[str, int]]:
        expected: dict[str, int] = {}
        actual: dict[str, int] = {}
        for name in TASKS:
            shard = route(name, SHARDS)
            expected[f"samples:{name}"] = self.shadow[shard].samples_taken(
                name)
            info = await _roundtrip(server.tcp_port,
                                    {"op": "task_info", "task": name})
            assert info is not None and info.get("ok"), info
            actual[f"samples:{name}"] = int(info["samples_taken"])
        stats = await _roundtrip(server.tcp_port, {"op": "stats"})
        assert stats is not None and stats.get("ok"), stats
        for shard_stats, predicted in zip(stats["shards"], self.predicted):
            shard = shard_stats["shard"]
            expected[f"applied:shard-{shard}"] = predicted["applied"]
            actual[f"applied:shard-{shard}"] = \
                int(shard_stats["updates_applied"])
        return expected, actual

    async def _cold_restore_check(self) -> list[str]:
        """Boot a pristine server from the final checkpoint and compare."""
        mismatches: list[str] = []
        cold = RuntimeServer(
            RuntimeConfig(shards=SHARDS, port=0,
                          checkpoint_path=self.ckpt_path,
                          checkpoint_interval=3600.0),
            adaptation=self.adaptation)
        await cold.start()
        try:
            for shard, fingerprint in enumerate(self._shadow_fingerprints()):
                live = state_fingerprint(
                    cold._workers[shard].service.snapshot())
                if live != fingerprint:
                    mismatches.append(
                        f"cold restore: shard {shard} diverged from shadow")
        finally:
            await cold.shutdown()
        return mismatches

    def _build_report(self, final_state: dict[str, Any],
                      ledger_expected: dict[str, int],
                      ledger_actual: dict[str, int],
                      cold_mismatches: list[str]) -> dict[str, Any]:
        self.identity_mismatches.extend(cold_mismatches)
        roundtrip_failures = []
        for shard, entry in final_state["shards"].items():
            verdict = check_restore_bit_identical(entry["snapshot"])
            if not verdict.passed:
                roundtrip_failures.append(f"shard {shard}: {verdict.detail}")
        identity_ok = not self.identity_mismatches and not roundtrip_failures
        identity = InvariantResult(
            name="restore_bit_identical",
            passed=identity_ok,
            detail=("live, durable, crash-restored and cold-restored state "
                    "all match the shadow bit-for-bit" if identity_ok else
                    (self.identity_mismatches + roundtrip_failures)[0]),
            metrics={
                "barrier_checks": self.barrier_checks,
                "crash_restores": self.crash_restores,
                "mismatches": len(self.identity_mismatches),
                "roundtrip_failures": len(roundtrip_failures),
            },
        )
        scope = ("ACKed and applied before the final drain barrier; "
                 "updates voided by a crash after the last durable "
                 "checkpoint excluded per the at-most-once contract")
        ledger = check_no_acked_loss(ledger_expected, ledger_actual,
                                     scope=scope)
        invariants = [
            check_allowance_conservation(AdaptiveAllocation(),
                                         seed=self.seed),
            check_misdetection_bound(seed=self.seed, err=ERR),
            identity,
            ledger,
        ]
        passed = (all(r.passed for r in invariants)
                  and not self.wire_mismatches
                  and not self.counter_mismatches)
        return {
            "scenario": self.name,
            "spec": self.spec.to_dict(),
            "workload": {
                "tasks": len(TASKS),
                "steps": STEPS,
                "shards": SHARDS,
                "barrier_every": BARRIER_EVERY,
                "threshold": THRESHOLD,
                "err": ERR,
                "max_interval": MAX_INTERVAL,
                "adaptation": dict(ADAPTATION),
                "virtual_clock_end": self.clock.now,
            },
            "injected": dict(self.hook.injected),
            "checkpoints": {
                "attempts": len(self.checkpoint_outcomes),
                "valid": self.checkpoint_outcomes.count("valid"),
                "rejected": self.checkpoint_outcomes.count("rejected"),
                "write_errors": self.checkpoint_outcomes.count("write-error"),
                "outcomes": list(self.checkpoint_outcomes),
            },
            "crashes": self.crash_restores,
            "wire": {
                "frames_sent": self.frames_sent,
                "mismatches": list(self.wire_mismatches),
            },
            "counters": {
                "match": not self.counter_mismatches,
                "mismatches": list(self.counter_mismatches),
            },
            "invariants": [r.to_dict() for r in invariants],
            "passed": passed,
        }


def run_scenario(name: str, seed: int) -> dict[str, Any]:
    """Run one scenario to completion; returns its report dict.

    Raises :class:`KeyError` for unknown scenario names (the valid names
    are the keys of :data:`SCENARIOS`).
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"choose from {sorted(SCENARIOS)}")
    # Injected apply faults are *expected* here; the shard logger's
    # reject-and-continue tracebacks would drown the scenario output.
    shard_logger = logging.getLogger("repro.runtime.shard")
    previous_level = shard_logger.level
    shard_logger.setLevel(logging.CRITICAL)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-testkit-") as workdir:
            driver = _ScenarioDriver(name, seed, pathlib.Path(workdir))
            return asyncio.run(driver.run())
    finally:
        shard_logger.setLevel(previous_level)


def run_matrix(names: list[str], seed: int) -> dict[str, Any]:
    """Run a list of scenarios and assemble the conformance report."""
    scenarios = [run_scenario(name, seed) for name in names]
    return {
        "testkit_report_version": 1,
        "seed": seed,
        "scenarios": scenarios,
        "passed": all(s["passed"] for s in scenarios),
    }


def render_report(report: dict[str, Any]) -> str:
    """Canonical byte-stable serialisation of a conformance report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description="Deterministic chaos scenarios + paper-invariant "
                    "conformance for the live runtime.")
    parser.add_argument("--scenario", default="all",
                        choices=["all", *SCENARIOS],
                        help="scenario to run (default: the whole matrix)")
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-schedule seed (default 7); a failure "
                             "reproduces from (scenario, seed) alone")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("testkit_report.json"),
                        help="conformance report path "
                             "(default testkit_report.json)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.testkit``)."""
    args = _build_parser().parse_args(argv)
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    report = run_matrix(names, args.seed)
    args.out.write_text(render_report(report), encoding="utf-8")
    for scenario in report["scenarios"]:
        verdicts = ", ".join(
            f"{r['name']}={'ok' if r['passed'] else 'FAIL'}"
            for r in scenario["invariants"])
        status = "PASS" if scenario["passed"] else "FAIL"
        print(f"[testkit] {scenario['scenario']:<18} {status}  ({verdicts})",
              flush=True)
    print(f"[testkit] report written to {args.out} (seed {args.seed})",
          flush=True)
    if not report["passed"]:
        print("[testkit] FAILED: reproduce with "
              f"--scenario <name> --seed {args.seed}; see docs/TESTING.md",
              file=sys.stderr, flush=True)
        return 1
    return 0
