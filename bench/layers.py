"""The traced run: per-layer metrics, measured from the benchmark's side.

No span lives inside the product yet, so each layer is timed from here,
around its public functions, on *twin replicas*: the workload's own
frames drive a live server (for the end-to-end total) and, frame by
frame, four stacks built through public APIs —

* twin A: ``ShardWorker.apply_columns`` over a ``MonitoringService``,
* twin B: ``MonitoringService.offer_columns``,
* twin C: bare ``SoaSamplerEngine.run_columns``,
* twin D: ``MonitoringService.offer_fast`` on the offers twin B sends
  down its scalar fallback (typed-mix only),

plus, for ``cluster-inproc``, twin E (two ``WorkerHost``s fed through
``handle_shard_offer``) and a second live server (``RuntimeServer``) on
the same frames, whose difference from the cluster is the hop. Twins fed
identical input evolve identically — checked against the live server's
counters at the end — so a layer's self time is its own span minus the
span of the twin one layer down, which the trace records as its child.

Each call is a span ``(name, start, end, parent, segment, count)`` kept
in memory and written out when the run ends. The live drive records
per-frame spans on every other segment only; the cost of the recorded
segments over the unrecorded ones is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import gc
import json
import pathlib
import statistics
import time
from typing import Any, Callable

import numpy as np

from calibrate import Calibrator
from e2e import (Drive, Feed, Ledger, Meter, Span, calibration_summary,
                 frame_wire_bytes, lower_quartile, percentile, plan,
                 setup_server, stand_down, stop_server, tail_percentile,
                 warm_up)
from streams import THRESHOLD, Frame
from workloads import ERR, MAX_INTERVAL, SHARDS, Workload

from repro.cluster.hosting import WorkerHost
from repro.cluster.routing import route
from repro.config import register_task_from_config, task_from_config
from repro.core.adaptation import ViolationLikelihoodSampler
from repro.core.likelihood import (max_admissible_interval,
                                   misdetection_bound_fused)
from repro.core.online_stats import OnlineStatistics
from repro.core.soa import SoaSamplerEngine
from repro.core.substrates import EntropyEstimator, QuantileEstimator
from repro.core.task import TaskSpec
from repro.runtime.checkpoint import (read_checkpoint, state_fingerprint,
                                      write_checkpoint)
from repro.runtime.protocol import (OfferColumns, decode_binary,
                                    encode_offer_columns, encode_offer_reply,
                                    encode_shard_offer)
from repro.runtime.shard import ColumnBatch, ShardWorker
from repro.service import MonitoringService
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import DecisionTrace
from repro.triggers.channel import TriggerWatcher
from repro.triggers.plan import TriggerPlan

__all__ = ["TRACE_SHARE", "run_traced"]

TRACE_SHARE = 0.5
"""The traced run drives half the segments of the end-to-end run after
half the warm-up: every frame is applied four times over (live server +
twins)."""

_MICRO_REPEATS = 8
_MICRO_CALLS = 4000
_STATE_REPEATS = 5
_clock = time.perf_counter_ns


class Tracer:
    """In-memory span store. A span's id is its index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []

    def name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, nid: int, start: int, end: int, parent: int,
            segment: int, count: int) -> int:
        self.spans.append((nid, start, end, parent, segment, count))
        return len(self.spans) - 1

    def dump(self, path: pathlib.Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **header, "clock": "perf_counter_ns",
            "columns": ["name", "start_ns", "end_ns", "parent", "segment",
                        "count"],
            "names": self.names, "spans": self.spans}), encoding="utf-8")


class Twin:
    """``SHARDS`` services holding the workload's tasks, routed, wired
    and instrumented the way the server wires its own."""

    def __init__(self, workload: Workload):
        self.plans = [TriggerPlan.from_dict(p)
                      for p in workload.trigger_plans()]
        self.trace = DecisionTrace(4096)
        self.services = [MonitoringService(soa=True) for _ in range(SHARDS)]
        self.workers = [ShardWorker(sid, service, 1024)
                        for sid, service in enumerate(self.services)]
        hist = MetricsRegistry().histogram(
            "volley_sampling_interval",
            "Sampling interval after each consumed update")
        self._shard_of: dict[str, int] = {}
        hooks = []
        for sid, worker in enumerate(self.workers):
            worker.interval_hist = hist
            worker.service.attach_telemetry(self.trace, sid)
            worker.service.set_trigger_sink(self._on_edge)
            hooks.append(functools.partial(_count_alert, worker))
        for entry in workload.task_entries():
            sid = route(entry["name"], SHARDS)
            self._shard_of[entry["name"]] = sid
            register_task_from_config(self.services[sid], dict(entry),
                                      on_alert=hooks[sid])
        for plan in self.plans:
            for name in (plan.trigger, plan.target):
                self.services[self._shard_of[name]].install_trigger_plan(
                    plan)

    def _on_edge(self, event: dict[str, Any]) -> None:
        armed = event.get("op") == "arm"
        for plan in self.plans:
            if plan.trigger == event.get("trigger"):
                self.set_armed(plan.target, armed)

    def set_armed(self, name: str, armed: bool) -> None:
        self.services[self._shard_of[name]].set_trigger_armed(name, armed)

    def totals(self) -> dict[str, int]:
        return {"applied": sum(w.applied for w in self.workers),
                "consumed": sum(w.consumed for w in self.workers),
                "alerts": sum(w.alerts_fired for w in self.workers)}


def _count_alert(worker: ShardWorker, _alert: Any) -> None:
    worker.alerts_fired += 1


class _Part:
    """One shard's share of a frame layout."""

    __slots__ = ("sid", "sel", "rows", "names", "gids", "soa_pos",
                 "engine_rows", "fallback")

    def __init__(self, sid: int, sel: np.ndarray, rows: np.ndarray,
                 names: list[str], gids: np.ndarray,
                 engine_rows: np.ndarray):
        self.sid = sid
        self.sel = sel
        self.rows = rows
        self.names = names
        self.gids = gids
        self.soa_pos = np.flatnonzero(rows >= 0)
        self.engine_rows = engine_rows[self.soa_pos]
        self.fallback = [(int(pos), names[pos])
                         for pos in np.flatnonzero(rows < 0).tolist()]


class Replay:
    """Drives the twins with the frames the live server gets."""

    def __init__(self, workload: Workload, tracer: Tracer,
                 hosts: dict[str, WorkerHost] | None):
        self.workload = workload
        self.tracer = tracer
        self.hosts = hosts
        entries = workload.task_entries()
        self.names = [e["name"] for e in entries]
        self.twin_a = Twin(workload)
        self.twin_b = Twin(workload)
        self.shard_of = np.asarray([route(n, SHARDS) for n in self.names])
        rows_a = self._rows(self.twin_a)
        self.rows = self._rows(self.twin_b)
        if not np.array_equal(rows_a, self.rows):
            raise RuntimeError("twins disagree on engine rows")
        self.fallback_tasks = int((self.rows < 0).sum())
        self.twin_d = Twin(workload) if self.fallback_tasks else None
        # Twin C: one bare engine per shard holding the SoA-resident
        # tasks, in the twins' registration order.
        self.engines = [SoaSamplerEngine() for _ in range(SHARDS)]
        self.engine_row = np.full(len(entries), -1, dtype=np.int64)
        for idx, entry in enumerate(entries):
            if self.rows[idx] >= 0:
                spec = task_from_config(dict(entry))
                self.engine_row[idx] = self.engines[
                    self.shard_of[idx]].add_task(spec)
        self._layouts: dict[bytes, list[_Part]] = {}
        self.engine_applied = self.engine_consumed = 0
        self.engine_violations = 0
        self.offers = self.fallback_offers = 0
        name = tracer.name
        self._ids = {key: name(key) for key in (
            "replay.frame", "protocol.encode", "protocol.decode",
            "protocol.reply", "protocol.shard_offer_codec", "shard.apply",
            "service.offer_columns", "soa.run_columns",
            "service.offer_fast", "hosting.shard_offer")}

    def _rows(self, twin: Twin) -> np.ndarray:
        return np.asarray([
            twin.services[sid].soa_row_for(name)
            for name, sid in zip(self.names, self.shard_of.tolist())],
            dtype=np.int64)

    def _layout(self, frame: Frame) -> list[_Part]:
        key = frame.task_idx.tobytes()
        parts = self._layouts.get(key)
        if parts is None:
            idx = frame.task_idx.astype(np.int64)
            shards = self.shard_of[idx]
            parts = []
            for sid in np.unique(shards).tolist():
                sel = np.flatnonzero(shards == sid)
                sub = idx[sel]
                parts.append(_Part(
                    sid, sel, self.rows[sub],
                    [self.names[i] for i in sub.tolist()],
                    frame.task_idx[sel], self.engine_row[sub]))
            self._layouts[key] = parts
        return parts

    def set_armed(self, name: str, armed: bool) -> None:
        for twin in (self.twin_a, self.twin_b, self.twin_d):
            if twin is not None:
                twin.set_armed(name, armed)

    async def frame(self, frame: Frame, segment: int, parent: int) -> None:
        """Take one frame through every layer's twin, span by span."""
        add = self.tracer.add
        ids = self._ids
        began = _clock()
        root = add(ids["replay.frame"], began, began, parent, segment,
                   len(frame))
        t0 = _clock()
        _head, body = encode_offer_columns(frame.task_idx, frame.steps,
                                           frame.values)
        t1 = _clock()
        add(ids["protocol.encode"], t0, t1, root, segment, len(frame))
        t0 = _clock()
        cols = decode_binary(body)
        t1 = _clock()
        add(ids["protocol.decode"], t0, t1, root, segment, len(frame))
        parts = self._layout(frame)
        routed = []
        for part in parts:
            steps = cols.steps[part.sel]
            values = cols.values[part.sel]
            routed.append((part, steps, values))
            batch = ColumnBatch(rows=part.rows, steps=steps, values=values,
                                names=part.names)
            t0 = _clock()
            self.twin_a.workers[part.sid].apply_columns(batch)
            t1 = _clock()
            outer = add(ids["shard.apply"], t0, t1, root, segment,
                        len(part.sel))
            t0 = _clock()
            self.twin_b.services[part.sid].offer_columns(
                part.rows, steps, values, part.names)
            t1 = _clock()
            inner = add(ids["service.offer_columns"], t0, t1, outer,
                        segment, len(part.sel))
            if len(part.soa_pos):
                soa_steps = steps[part.soa_pos]
                soa_values = values[part.soa_pos]
                t0 = _clock()
                result = self.engines[part.sid].run_columns(
                    part.engine_rows, soa_steps, soa_values)
                t1 = _clock()
                add(ids["soa.run_columns"], t0, t1, inner, segment,
                    len(part.soa_pos))
                self.engine_applied += result.applied
                self.engine_consumed += result.consumed
                self.engine_violations += len(result.viol_rows)
            if part.fallback:
                offer_fast = self.twin_d.services[part.sid].offer_fast
                step_list = steps.tolist()
                value_list = values.tolist()
                t0 = _clock()
                for pos, name in part.fallback:
                    offer_fast(name, value_list[pos], step_list[pos])
                t1 = _clock()
                add(ids["service.offer_fast"], t0, t1, inner, segment,
                    len(part.fallback))
                self.fallback_offers += len(part.fallback)
        self.offers += len(frame)
        t0 = _clock()
        _rhead, rbody = encode_offer_reply(len(frame), 0, 0, False, 0)
        decode_binary(rbody)
        t1 = _clock()
        add(ids["protocol.reply"], t0, t1, root, segment, 1)
        if self.hosts is not None:
            segments = [(part.sid, part.gids, steps, values)
                        for part, steps, values in routed]
            t0 = _clock()
            _shead, sbody = encode_shard_offer(segments)
            decode_binary(sbody)
            t1 = _clock()
            add(ids["protocol.shard_offer_codec"], t0, t1, root, segment,
                len(frame))
            t0 = _clock()
            for wid, host in self.hosts.items():
                host.handle_shard_offer(
                    [(sid, OfferColumns(gids, steps, values))
                     for sid, gids, steps, values in segments
                     if _worker_of(sid) == wid])
            for host in self.hosts.values():
                await host.handle({"op": "w_drain"})
            t1 = _clock()
            add(ids["hosting.shard_offer"], t0, t1, root, segment,
                len(frame))
        ended = _clock()
        self.tracer.spans[root] = (ids["replay.frame"], began, ended,
                                   parent, segment, len(frame))


def _worker_of(sid: int) -> str:
    return f"w{sid % 2}"


async def _build_hosts(workload: Workload) -> dict[str, WorkerHost]:
    """Twin E: the cluster's two in-proc worker hosts, set up through
    the ``w_*`` op surface the coordinator uses."""
    hosts = {wid: WorkerHost(wid, queue_depth=1024) for wid in ("w0", "w1")}
    for sid in range(SHARDS):
        await hosts[_worker_of(sid)].handle({"op": "w_add_shard",
                                             "shard": sid})
    for host in hosts.values():
        host.start()
    entries = workload.task_entries()
    for entry in entries:
        sid = route(entry["name"], SHARDS)
        reply = await hosts[_worker_of(sid)].handle({
            "op": "w_register_task", "shard": sid, "task": dict(entry),
            "defaults": {}})
        if not reply.get("ok"):
            raise RuntimeError(f"twin host refused a task: {reply}")
    table = [[gid, entry["name"]] for gid, entry in enumerate(entries)]
    for host in hosts.values():
        await host.handle({"op": "w_intern", "tasks": table})
    return hosts


def _per_segment(tracer: Tracer, nid: int, segments: int) -> np.ndarray:
    """Summed span nanoseconds of one name, per segment."""
    out = np.zeros(segments)
    for name, start, end, _parent, segment, _count in tracer.spans:
        if name == nid and segment >= 0:
            out[segment] += end - start
    return out


def _micro(meter: Meter, loops: dict[str, Callable[[], int]],
           ) -> dict[str, float]:
    """ns per call of each micro loop: ``_MICRO_REPEATS`` calibrated
    repeats, lower quartile."""
    samples: dict[str, list[float]] = {name: [] for name in loops}
    for _ in range(_MICRO_REPEATS):
        raw: dict[str, float] = {}
        meter.start()
        for name, loop in loops.items():
            t0 = _clock()
            calls = loop()
            raw[name] = (_clock() - t0) / calls
        span = meter.stop()
        for name, value in raw.items():
            samples[name].append(value * span.wall / span.raw_wall)
    return {name: lower_quartile(values) for name, values in samples.items()}


def _micro_loops(values: list[float], workload: Workload,
                 ) -> dict[str, Callable[[], int]]:
    """Loops over one task's own stream for the layers below the
    service: samplers, likelihood kernels, statistics, substrates,
    trigger watcher, histogram, router."""
    reps = max(1, _MICRO_CALLS // max(1, len(values)))
    stream = values * reps
    spec = TaskSpec(threshold=THRESHOLD, error_allowance=ERR,
                    max_interval=MAX_INTERVAL)
    names = [workload.task_name(i) for i in range(workload.tasks)]

    def observe_fast() -> int:
        sampler = ViolationLikelihoodSampler(spec)
        for step, value in enumerate(stream):
            sampler.observe_fast(value, step)
        return len(stream)

    def run_trace() -> int:
        ViolationLikelihoodSampler(spec).run_trace(stream)
        return len(stream)

    def bound_fused() -> int:
        for value in stream:
            misdetection_bound_fused(value, THRESHOLD, 0.01, 0.6, 4)
        return len(stream)

    def max_interval() -> int:
        for value in stream:
            max_admissible_interval(value, THRESHOLD, 0.01, 0.6, ERR,
                                    MAX_INTERVAL)
        return len(stream)

    def stats_update() -> int:
        stats = OnlineStatistics()
        for value in stream:
            stats.update(value)
        return len(stream)

    def quantile_update() -> int:
        sketch = QuantileEstimator(quantile=0.99, window=256)
        for value in stream:
            sketch.update(value)
        return len(stream)

    def entropy_update() -> int:
        window = EntropyEstimator(window=64)
        for value in stream:
            window.update(value)
        return len(stream)

    def watcher_update() -> int:
        watcher = TriggerWatcher(85.0)
        for step, value in enumerate(stream):
            watcher.observe(value, step)
        return len(stream)

    def histogram_observe() -> int:
        hist = LogHistogram()
        for value in stream:
            hist.record(value)
        return len(stream)

    def route_names() -> int:
        for name in names:
            route(name, SHARDS)
        return len(names)

    guard = MonitoringService()
    for name in ("guarded", "guard"):
        guard.add_task(name, spec)
    guard.install_trigger_plan(TriggerPlan(target="guarded", trigger="guard",
                                           elevation_level=85.0))

    def arm_edge() -> int:
        for _ in range(500):
            guard.set_trigger_armed("guarded", False)
            guard.set_trigger_armed("guarded", True)
        return 1000

    return {"adaptation.observe_fast_ns": observe_fast,
            "adaptation.run_trace_ns_per_step": run_trace,
            "likelihood.bound_fused_ns": bound_fused,
            "likelihood.max_interval_ns": max_interval,
            "online_stats.update_ns": stats_update,
            "substrates.quantile_update_ns": quantile_update,
            "substrates.entropy_update_ns": entropy_update,
            "triggers.watcher_update_ns": watcher_update,
            "triggers.arm_edge_ns": arm_edge,
            "histogram.observe_ns": histogram_observe,
            "routing.route_ns": route_names}


def _state_layers(meter: Meter, replay: Replay, registry: Any,
                  path: pathlib.Path) -> dict[str, float]:
    """Snapshot / restore / checkpoint-file layers on twin B's state,
    and the live registry's snapshot; ms, lower quartile of repeats."""
    services = replay.twin_b.services
    samples: dict[str, list[float]] = {}
    size = 0
    for _ in range(_STATE_REPEATS):
        gc.collect()
        raw: dict[str, int] = {}
        meter.start()
        t0 = _clock()
        snapshots = [service.snapshot() for service in services]
        raw["service.snapshot_ms"] = _clock() - t0
        t0 = _clock()
        for snapshot in snapshots:
            MonitoringService.restore(snapshot, soa=True)
        raw["service.restore_ms"] = _clock() - t0
        state = {"shard_count": SHARDS, "shards": snapshots}
        t0 = _clock()
        write_checkpoint(path, state)
        raw["checkpoint.write_ms"] = _clock() - t0
        t0 = _clock()
        read_checkpoint(path)
        raw["checkpoint.read_ms"] = _clock() - t0
        t0 = _clock()
        state_fingerprint(state)
        raw["checkpoint.fingerprint_ms"] = _clock() - t0
        t0 = _clock()
        for _ in range(10):
            registry.snapshot()
        raw["registry.snapshot_ms"] = (_clock() - t0) / 10
        span = meter.stop()
        size = path.stat().st_size
        for name, value in raw.items():
            samples.setdefault(name, []).append(
                value / 1e6 * span.wall / span.raw_wall)
    path.unlink(missing_ok=True)
    out = {name: lower_quartile(values) for name, values in samples.items()}
    out["checkpoint.bytes"] = float(size)
    return out


async def _drive_base(meter: Meter, drive: Drive, batch: list[Frame],
                      seg: int) -> Span:
    meter.start()
    for frame in batch:
        await drive.send(frame)
    await drive.barrier(f"base segment {seg}")
    return meter.stop()


async def run_traced(workload: Workload, seed: int, scale: float,
                     workdir: pathlib.Path, calibrator: Calibrator,
                     trace_path: pathlib.Path) -> dict[str, Any]:
    """Measure every per-layer metric of ``workload``; returns the
    result document and writes the spans to ``trace_path``."""
    meter = Meter(calibrator)
    ledger = Ledger()
    tracer = Tracer()
    is_cluster = workload.server == "cluster"

    server, client, _spans = await setup_server(
        workload, meter, workdir / "live.ckpt")
    drive = Drive(client, ledger)
    base_server = base_drive = None
    if is_cluster:
        # The same frames through the single-process server: the
        # cluster's cost over it is the router -> coordinator -> host hop.
        base_server, base_client, _spans = await setup_server(
            workload, meter, workdir / "base.ckpt", kind="runtime")
        base_drive = Drive(base_client, Ledger())
    hosts = await _build_hosts(workload) if is_cluster else None
    gc.collect()
    meter.start()
    replay = Replay(workload, tracer, hosts)
    build = meter.stop()
    twin_stacks = 3 if replay.twin_d is not None else 2
    add_task_us = build.cpu / (twin_stacks * workload.tasks) * 1e6
    feed = Feed(workload, seed)

    # -- warm-up: live server and twins alike, no spans kept -------------
    todo = plan(workload, scale, warm_scale=TRACE_SHARE,
                segment_share=TRACE_SHARE)

    async def warm(frame: Frame) -> None:
        await drive.send(frame)
        if base_drive is not None:
            await base_drive.send(frame)
        await replay.frame(frame, -1, -1)

    await warm_up(feed, todo, warm)
    if todo.warm_steps:
        await drive.barrier("warm-up")
    tracer.spans.clear()
    replay.offers = replay.fallback_offers = 0
    replay.engine_applied = replay.engine_consumed = 0
    replay.engine_violations = 0

    # -- segments: live drive, then the same frames on the twins ---------
    frame_id = tracer.name("e2e.frame")
    barrier_id = tracer.name("e2e.barrier")
    live: list[Span] = []
    base: list[Span] = []
    replayed: list[Span] = []
    seg_offers: list[int] = []
    frame_ms: list[float] = []
    totals: dict[str, Any] = {}
    for seg in range(todo.segments):
        batch = feed.next(todo.steps, workload.frame_offers)
        edges = (workload.edge_targets(seg)
                 if workload.edge_every and seg % workload.edge_every == 0
                 else [])
        half = len(batch) // 2
        traced = seg % 2 == 0
        roots: list[int] = []
        laps: list[int] = []
        if base_drive is not None and seg % 4 >= 2:
            # Alternate which server sees a segment first, so neither
            # always runs on the heap the other just churned.
            base.append(await _drive_base(meter, base_drive, batch, seg))
        disarmed: list[str] = []
        meter.start()
        for target, _trigger in edges:
            await client.set_trigger_armed(target, True)
        for k, frame in enumerate(batch):
            if edges and k == half:
                disarmed = await stand_down(client, edges)
            if traced:
                t0 = _clock()
                laps.append(await drive.send(frame))
                roots.append(tracer.add(frame_id, t0, _clock(), -1, seg,
                                        len(frame)))
            else:
                laps.append(await drive.send(frame))
        if traced:
            t0 = _clock()
            totals = await drive.barrier(f"segment {seg}")
            tracer.add(barrier_id, t0, _clock(), -1, seg, 1)
        else:
            totals = await drive.barrier(f"segment {seg}")
        span = meter.stop()
        live.append(span)
        seg_offers.append(sum(len(frame) for frame in batch))
        frame_ms.extend(lap / 1e6 * span.wall / span.raw_wall
                        for lap in laps)
        if base_drive is not None and seg % 4 < 2:
            base.append(await _drive_base(meter, base_drive, batch, seg))
        meter.start()
        for target, _trigger in edges:
            replay.set_armed(target, True)
        for k, frame in enumerate(batch):
            if edges and k == half:
                for target in disarmed:
                    replay.set_armed(target, False)
            await replay.frame(frame, seg, roots[k] if traced else -1)
        replayed.append(meter.stop())
        del batch

    # -- twins must have evolved like the server -------------------------
    for key, value in replay.twin_a.totals().items():
        ledger.check(value == totals[key],
                     f"twin A {key} {value} != server {totals[key]}")
    frames_handled = int((await client.stats())["frames"])

    # -- layers that do not ride the frame path --------------------------
    state = _state_layers(meter, replay, server.registry,
                          workdir / "layers.ckpt")
    shadow = feed.shadow_values()
    longest = shadow[:, np.argmax((~np.isnan(shadow)).sum(axis=0))]
    micro = _micro(meter, _micro_loops(
        [v for v in longest.tolist() if v == v], workload))

    await client.close()
    await stop_server(server)
    if base_server is not None:
        await base_drive.client.close()
        await stop_server(base_server)
    for host in (hosts or {}).values():
        await host.close()

    # -- fold -------------------------------------------------------------
    offers = np.asarray(seg_offers, dtype=float)
    wall_scale = np.asarray([s.wall / s.raw_wall for s in replayed])
    n_frames = todo.steps * workload.tasks // workload.frame_offers

    def layer_ns(name: str) -> np.ndarray:
        return (_per_segment(tracer, tracer.name(name), todo.segments)
                * wall_scale / offers)

    encode = layer_ns("protocol.encode")
    decode = layer_ns("protocol.decode")
    reply = layer_ns("protocol.reply")
    shard = layer_ns("shard.apply")
    service = layer_ns("service.offer_columns")
    soa = layer_ns("soa.run_columns")
    fast = layer_ns("service.offer_fast")
    codec = layer_ns("protocol.shard_offer_codec")
    hosting = layer_ns("hosting.shard_offer")
    live_ns = np.asarray([s.cpu for s in live]) / offers * 1e9
    # What the live server spends outside the layers timed above
    # (asyncio, sockets, intern, route, queue), from the reported values,
    # so that the reported budget adds up exactly.
    total_ns = lower_quartile(live_ns.tolist())
    residual = total_ns - sum(lower_quartile(layer.tolist()) for layer in
                              (encode, decode, shard, reply))
    cpu_us = (live_ns / 1e3).tolist()
    cpu_us_raw = [s.raw_cpu / n * 1e6 for s, n in zip(live, seg_offers)]
    traced_us = lower_quartile(cpu_us[0::2])
    untraced_us = lower_quartile(cpu_us[1::2])
    hop = 0.0
    if base:
        base_ns = np.asarray([s.cpu for s in base]) / offers * 1e9
        hop = lower_quartile((live_ns - base_ns).tolist())
    frame_ms.sort()
    tail_q = tail_percentile(len(frame_ms))
    fallback_per_offer = (replay.fallback_offers / replay.offers
                          if replay.offers else 0.0)

    def lq(values: np.ndarray) -> float:
        return lower_quartile(values.tolist())

    metrics: dict[str, float] = {
        "protocol.encode_ns_per_offer": lq(encode),
        "protocol.decode_ns_per_offer": lq(decode),
        "protocol.reply_us_per_frame": lq(reply * offers / n_frames) / 1e3,
        "protocol.frame_bytes": float(
            frame_wire_bytes(workload.frame_offers)[0]),
        "protocol.shard_offer_codec_ns_per_offer": lq(codec),
        "shard.apply_ns_per_offer": lq(shard),
        "shard.self_ns_per_offer": lq(shard - service),
        "service.offer_columns_ns_per_offer": lq(service),
        "service.self_ns_per_offer": lq(service - soa - fast),
        "service.fallback_share": fallback_per_offer,
        "service.offer_fast_ns_per_offer": (
            lq(fast) / fallback_per_offer if fallback_per_offer else 0.0),
        "service.add_task_us": add_task_us,
        "soa.run_columns_ns_per_offer": lq(soa),
        "soa.consumed_share": (replay.engine_consumed
                               / max(1, replay.engine_applied)),
        "soa.violation_share": (replay.engine_violations
                                / max(1, replay.engine_applied)),
        "hosting.shard_offer_ns_per_offer": lq(hosting),
        "cluster.hop_ns_per_offer": hop,
        "server.residual_ns_per_offer": residual,
        "server.residual_us_per_frame": (residual * workload.frame_offers
                                         / 1e3),
        "total.cpu_us_per_offer": total_ns / 1e3,
        "raw.cpu_us_per_offer": statistics.median(cpu_us_raw),
        "raw.offers_per_s": statistics.median(
            n / s.raw_wall for s, n in zip(live, seg_offers)),
        "frame_ack_tail_ms": percentile(frame_ms, tail_q),
        "server.frames": float(frames_handled),
        "trace.overhead_ratio": traced_us / untraced_us - 1.0,
        **calibration_summary(calibrator, live), **state, **micro,
    }
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed,
                             "scale": scale, "segments": todo.segments})
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "correct": not ledger.problems,
        "problems": ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "samples": {
            "segments": todo.segments,
            "steps_per_segment": todo.steps,
            "warmup_steps": todo.warm_steps,
            "offers": int(offers.sum()),
            "spans": len(tracer.spans),
            "frame_ack_tail_percentile": tail_q,
            "fallback_tasks": replay.fallback_tasks,
            "residual_share": residual / total_ns,
        },
    }
