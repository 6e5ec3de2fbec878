"""End-to-end measurement of one workload.

One process, one thread, one event loop: the server under test is
hosted through its public API (``RuntimeServer`` /
``ClusterServer(backend="inproc")``) in *this* loop and driven by one
``AsyncRuntimeClient`` over real loopback TCP, closed loop, one
connection. A server subprocess was tried and rejected: it lands on the
other core, where client-side calibration cannot see its speed.

Every timed region is bracketed by calibration samples (``calibrate.py``)
and reported at reference speed; raw values ride along. After an untimed
(but checked) warm-up that takes the sampler population to its steady
state, the drive is cut into ``SEGMENTS`` equal fixed-work segments, each
ending in a drain barrier (``applied + rejected == offered``); a
workload's value is the lower quartile over segments (see
``lower_quartile``), which stays put when a noisy neighbour slows a third
of them down.

Nothing wall-clock-driven runs inside the server while it is measured:
the periodic checkpoint loop and (cluster) the heartbeat loop are
configured out (their interval is set past the end of the run), because
work triggered by elapsed time makes fixed work unrepeatable. What a
heartbeat costs is a snapshot of every shard; the traced run prices that
as ``service.snapshot_ms``.
"""

from __future__ import annotations

import gc
import os
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from calibrate import Calibration, Calibrator, scale_factor
from streams import THRESHOLD, Frame, Stream, cut_frames
from workloads import ERR, SEGMENTS, SHARDS, Workload

from repro.cluster.server import ClusterServer
from repro.config import (ClusterConfig, RuntimeConfig,
                          register_task_from_config)
from repro.runtime.checkpoint import read_checkpoint, state_fingerprint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.protocol import encode_offer_columns, encode_offer_reply
from repro.runtime.server import RuntimeServer
from repro.service import MonitoringService

__all__ = ["Drive", "Feed", "Ledger", "Meter", "Plan", "Span",
           "calibration_summary", "frame_wire_bytes",
           "host_server", "lower_quartile", "percentile", "pin_to_one_cpu",
           "plan", "run_e2e", "setup_server", "stand_down", "stop_server",
           "tail_percentile", "warm_up"]

_NEVER = 1.0e9          # seconds; "this periodic loop never fires"
_SETUP_CHUNKS = 16
_SETUP_REPEATS = 3
_CHECKPOINT_REPEATS = 12
_RESTORE_REPEATS = 8
_MAX_REPEAT_BOOST = 3.0
_WARM_FRAME = 8192      # warm-up frame for workloads with sub-step frames
_MIN_SEGMENTS = 8
_PAGE = os.sysconf("SC_PAGE_SIZE")


def pin_to_one_cpu() -> int:
    """Pin the process to one allowed CPU; returns it (-1 when the
    platform will not pin, in which case the run goes on unpinned)."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return -1
    return cpu


def rss_mb() -> float:
    with open("/proc/self/statm", "rb") as handle:
        resident = int(handle.read().split()[1])
    return resident * _PAGE / 1e6


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


@dataclass(frozen=True)
class Span:
    """One timed region: raw and calibrated, CPU and wall, seconds."""

    raw_cpu: float
    raw_wall: float
    cpu: float
    wall: float
    before: Calibration
    after: Calibration


class Meter:
    """Times regions with ``process_time`` and ``perf_counter`` and
    brackets each with calibration samples (the sample closing one
    region opens the next)."""

    def __init__(self, calibrator: Calibrator):
        self._cal = calibrator
        self._last = calibrator.measure()
        self._c0 = self._w0 = 0

    def start(self) -> None:
        self._w0 = time.perf_counter_ns()
        self._c0 = time.process_time_ns()

    def stop(self) -> Span:
        c1 = time.process_time_ns()
        w1 = time.perf_counter_ns()
        before, after = self._last, self._cal.measure()
        self._last = after
        raw_cpu = (c1 - self._c0) / 1e9
        raw_wall = (w1 - self._w0) / 1e9
        return Span(raw_cpu, raw_wall,
                    raw_cpu * scale_factor(before, after, "cpu"),
                    raw_wall * scale_factor(before, after, "wall"),
                    before, after)


def lower_quartile(values: list[float]) -> float:
    """The estimator for every repeated timing (segments, set-up
    chunks, checkpoints, restores). Noise on this box is one-sided —
    bursts slow a region down, nothing speeds it up — and can cover half
    a run, so the median still moves with the share of slowed samples;
    the lower quartile stays on the quiet floor, and unlike the minimum
    it does not chase the one sample whose calibration over-corrected."""
    return percentile(sorted(values), 0.25)


# ----------------------------------------------------------------------
# The server under test, reached only through its public surface


def host_server(workload: Workload, checkpoint: pathlib.Path,
                kind: str | None = None) -> Any:
    """The server under test, built through its public constructor."""
    max_batch = max(_WARM_FRAME, workload.frame_offers)
    if (kind or workload.server) == "runtime":
        return RuntimeServer(RuntimeConfig(
            shards=SHARDS, max_batch=max_batch, port=0,
            checkpoint_path=checkpoint, checkpoint_interval=_NEVER))
    return ClusterServer(ClusterConfig(
        workers=2, shards=SHARDS, backend="inproc", max_batch=max_batch,
        port=0, checkpoint_path=checkpoint, checkpoint_interval=_NEVER,
        heartbeat_interval=_NEVER))


async def stop_server(server: Any) -> None:
    """Stop a hosted server. The runtime is aborted (no final flush: the
    checkpoint file must keep the state the benchmark wrote); the cluster
    has no abort and flushes the same state again."""
    if isinstance(server, RuntimeServer):
        await server.abort()
    else:
        await server.shutdown()


async def setup_server(workload: Workload, meter: Meter,
                       checkpoint: pathlib.Path, kind: str | None = None,
                       ) -> tuple[Any, AsyncRuntimeClient, list[Span]]:
    """Server start -> N ``register_task`` ops -> plans -> ``hello`` ->
    ``intern``, timed in ``_SETUP_CHUNKS`` calibrated chunks."""
    entries = workload.task_entries()
    bounds = np.linspace(0, len(entries), _SETUP_CHUNKS + 1).astype(int)
    spans: list[Span] = []
    meter.start()
    server = host_server(workload, checkpoint, kind)
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)
    await client.connect()
    for chunk in range(_SETUP_CHUNKS):
        if chunk:
            meter.start()
        for entry in entries[bounds[chunk]:bounds[chunk + 1]]:
            spec = {k: v for k, v in entry.items()
                    if k not in ("name", "threshold")}
            await client.register_task(entry["name"], entry["threshold"],
                                       **spec)
        if chunk == _SETUP_CHUNKS - 1:
            for plan in workload.trigger_plans():
                await client.install_trigger_plan(plan)
            await client.negotiate()
            await client.intern([e["name"] for e in entries])
        spans.append(meter.stop())
    return server, client, spans


# ----------------------------------------------------------------------
# Inputs and accounting


class Feed:
    """The workload's frames, with the ground truth and the shadow
    values they imply. ``--seed`` enters the benchmark here and nowhere
    else; the server sees only the frames."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.stream = Stream(seed, workload.stream)
        self._scored = np.asarray(workload.scored_tasks())
        self.picks = workload.shadow_tasks()
        self.truth = 0
        self._shadow: list[np.ndarray] = []

    def next(self, n_steps: int, frame_offers: int) -> list[Frame]:
        """Frames for the next ``n_steps`` grid steps."""
        stream = self.stream
        first = stream.step
        values = stream.take(n_steps)
        offered = (np.arange(first, first + n_steps)[:, None]
                   >= stream.first_step[None, :])
        self.truth += int(((values > THRESHOLD) & offered)
                          [:, self._scored].sum())
        self._shadow.append(np.where(offered, values, np.nan)[:, self.picks])
        return list(cut_frames(values, first, frame_offers,
                               stream.first_step))

    def shadow_values(self) -> np.ndarray:
        """``(steps, picks)`` values offered so far (NaN = not offered)."""
        return np.concatenate(self._shadow)


@dataclass
class Ledger:
    """Client-side accounting the server's counters must agree with."""

    attempted: int = 0
    accepted: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.accepted

    def check(self, condition: bool, message: str) -> None:
        if not condition and len(self.problems) < 20:
            self.problems.append(message)

    def check_totals(self, totals: dict[str, Any], where: str) -> None:
        self.check(totals["offered"] == self.accepted,
                   f"{where}: server offered {totals['offered']} != client "
                   f"accepted {self.accepted}")
        self.check(totals["applied"] == totals["offered"],
                   f"{where}: applied {totals['applied']} != offered "
                   f"{totals['offered']}")
        self.check(totals["shed"] == 0 and totals["rejected"] == 0,
                   f"{where}: shed {totals['shed']} rejected "
                   f"{totals['rejected']}")


class Drive:
    """One client connection driving frames, closed loop."""

    def __init__(self, client: AsyncRuntimeClient, ledger: Ledger):
        self.client = client
        self.ledger = ledger

    async def send(self, frame: Frame) -> int:
        """Offer one frame and wait for its reply; returns the ack
        latency in ns. A frame not fully accepted counts as failed
        offers."""
        t0 = time.perf_counter_ns()
        reply = await self.client.offer_columns(frame.task_idx, frame.steps,
                                                frame.values)
        lap = time.perf_counter_ns() - t0
        self.ledger.attempted += len(frame)
        self.ledger.accepted += reply.accepted
        return lap

    async def barrier(self, where: str) -> dict[str, Any]:
        """Poll ``stats`` until every accepted offer has been applied,
        then hold the server's counters against the ledger."""
        for _ in range(10_000):
            totals = (await self.client.stats())["totals"]
            if totals["applied"] + totals["rejected"] >= totals["offered"]:
                self.ledger.check_totals(totals, where)
                return totals
        raise RuntimeError("drain barrier did not settle")


async def stand_down(client: AsyncRuntimeClient,
                     edges: list[tuple[str, str]]) -> list[str]:
    """Disarm each explicitly armed target whose trigger's watch is not
    elevated; returns the targets disarmed."""
    disarmed = []
    for target, trigger in edges:
        state = (await client.trigger_state(trigger))["state"]
        if not state["watch"]["armed"]:
            await client.set_trigger_armed(target, False)
            disarmed.append(target)
    return disarmed


def frame_wire_bytes(offers: int) -> tuple[int, int]:
    """``(request, reply)`` bytes of one ``offers``-offer frame, from
    the product's own encoders."""
    head, body = encode_offer_columns(np.zeros(offers, dtype="<u4"),
                                      np.zeros(offers, dtype="<i8"),
                                      np.zeros(offers, dtype="<f8"))
    reply_head, reply_body = encode_offer_reply(offers, 0, 0, False, 0)
    return len(head) + len(body), len(reply_head) + len(reply_body)


def tail_percentile(n_frames: int) -> float:
    """The highest percentile with at least ten frames beyond it."""
    return max(0.5, 1.0 - 10.0 / n_frames) if n_frames else 0.5


def calibration_summary(calibrator: Calibrator,
                        segments: list[Span]) -> dict[str, float]:
    """The ``calib.*`` diagnostics: median kernel times over the run and
    how much the machine's speed moved between segments."""
    g_cpu = [s.before.g_cpu for s in segments] + [segments[-1].after.g_cpu]
    samples = calibrator.samples
    return {
        "calib.np_ms": statistics.median(c.np_cpu for c in samples),
        "calib.py_ms": statistics.median(c.py_cpu for c in samples),
        "calib.sys_ms": statistics.median(c.sys_cpu for c in samples),
        "calib.segment_cv": statistics.pstdev(g_cpu) / statistics.mean(g_cpu),
    }


def shadow_replay(workload: Workload, picks: list[int],
                  values: np.ndarray) -> dict[str, dict[str, int]]:
    """Drive the picked tasks through plain ``MonitoringService.offer``
    (the scalar reference path) over the same per-task values."""
    service = MonitoringService()
    entries = workload.task_entries()
    names = [entries[idx]["name"] for idx in picks]
    for idx in picks:
        register_task_from_config(service, dict(entries[idx]))
    for step, row in enumerate(values.tolist()):
        for name, value in zip(names, row):
            if value == value:      # NaN = not offered yet
                service.offer(name, value, step)
    return {name: {"samples_taken": service.samples_taken(name),
                   "interval": service.interval(name),
                   "alerts": len(service.alerts(name))}
            for name in names}


def warm_frame_offers(workload: Workload) -> int:
    """Warm-up uses the workload's own frames unless they are smaller
    than a grid step; then big ones (the fast path): warm-up is there to
    age the samplers, not to be measured."""
    if workload.frame_offers >= workload.tasks:
        return workload.frame_offers
    return _WARM_FRAME


def steps_per_frame(workload: Workload, frame_offers: int) -> int:
    return max(1, frame_offers // workload.tasks)


@dataclass(frozen=True)
class Plan:
    """How much of a workload one run drives at a given scale."""

    warm_frame: int     # offers per warm-up frame
    warm_steps: int     # grid steps of warm-up
    warm_chunk: int     # warm-up steps generated at a time
    segments: int
    steps: int          # grid steps per segment
    checkpoint_repeats: int
    restore_repeats: int


def plan(workload: Workload, scale: float, warm_scale: float = 1.0,
         segment_share: float = 1.0) -> Plan:
    """The fixed work at ``scale``, in whole frames. Below scale 1 the
    segments shrink first; once a segment is down to one frame, their
    number does (to ``_MIN_SEGMENTS`` at the least), and the checkpoint
    and restore repeats with it (to 3 at the least), so that small scales
    really are small. ``warm_scale`` and ``segment_share`` let the traced
    run take half the warm-up and half the segments."""
    warm_frame = warm_frame_offers(workload)
    per_warm = steps_per_frame(workload, warm_frame)
    warm_steps = (round(workload.warmup_steps * scale * warm_scale)
                  // per_warm * per_warm)
    granule = steps_per_frame(workload, workload.frame_offers)
    wanted = workload.segment_steps * scale
    steps = max(granule, round(wanted) // granule * granule)
    full = round(SEGMENTS * segment_share)
    segments = min(full, max(_MIN_SEGMENTS, round(full * wanted / steps)))
    # A small task set checkpoints and restores quickly, which makes its
    # repeats cheap and (being short) noisier: it gets more of them.
    share = segments / full * min(_MAX_REPEAT_BOOST, 4096 / workload.tasks)
    return Plan(warm_frame, warm_steps, 8 * per_warm, segments, steps,
                max(3, round(_CHECKPOINT_REPEATS * share)),
                max(3, round(_RESTORE_REPEATS * share)))


async def warm_up(feed: Feed, todo: Plan, send: Any) -> None:
    """Feed the warm-up frames to ``send`` (an async callable), a few
    frames' worth of steps at a time so no big matrix is ever live."""
    for done in range(0, todo.warm_steps, todo.warm_chunk):
        for frame in feed.next(min(todo.warm_chunk, todo.warm_steps - done),
                               todo.warm_frame):
            await send(frame)


# ----------------------------------------------------------------------
# The run


async def run_e2e(workload: Workload, seed: int, scale: float,
                  workdir: pathlib.Path, calibrator: Calibrator,
                  ) -> dict[str, Any]:
    """Measure every end-to-end metric of ``workload``; returns the
    result document (metrics, raw values, checks, diagnostics).

    Each repeat of set-up, checkpoint and restore starts from a collected
    heap: otherwise the garbage of repeat ``i`` makes the collector's
    passes during repeat ``i + 1`` slower, and repeats are not alike.
    """
    checkpoint = workdir / f"{workload.name}.ckpt"
    meter = Meter(calibrator)
    ledger = Ledger()
    gc.collect()
    rss_before = rss_mb()

    # -- set-up, repeated; the last server is the one driven ------------
    setup_runs: list[list[Span]] = []
    server = client = None
    for _ in range(_SETUP_REPEATS):
        if server is not None:
            await client.close()
            await stop_server(server)
        checkpoint.unlink(missing_ok=True)
        gc.collect()
        server, client, spans = await setup_server(workload, meter,
                                                   checkpoint)
        setup_runs.append(spans)
    drive = Drive(client, ledger)
    feed = Feed(workload, seed)

    # -- warm-up: checked, not timed ------------------------------------
    todo = plan(workload, scale)
    await warm_up(feed, todo, drive.send)
    if todo.warm_steps:
        await drive.barrier("warm-up")

    # -- drive: equal fixed-work segments -------------------------------
    segments: list[Span] = []
    seg_offers: list[int] = []
    frame_ms: list[float] = []
    frame_ms_raw: list[float] = []
    seg_frame_ms: list[float] = []
    totals: dict[str, Any] = {}
    for seg in range(todo.segments):
        batch = feed.next(todo.steps, workload.frame_offers)
        edges = (workload.edge_targets(seg)
                 if workload.edge_every and seg % workload.edge_every == 0
                 else [])
        laps: list[int] = []
        meter.start()
        for target, _trigger in edges:
            await client.set_trigger_armed(target, True)
        for k, frame in enumerate(batch):
            if edges and k == len(batch) // 2:
                await stand_down(client, edges)
            laps.append(await drive.send(frame))
        totals = await drive.barrier(f"segment {seg}")
        span = meter.stop()
        segments.append(span)
        seg_offers.append(sum(len(frame) for frame in batch))
        wall_scale = span.wall / span.raw_wall
        frame_ms_raw.extend(lap / 1e6 for lap in laps)
        frame_ms.extend(lap / 1e6 * wall_scale for lap in laps)
        seg_frame_ms.append(statistics.median(laps) / 1e6 * wall_scale)
        del batch

    # -- state size -----------------------------------------------------
    gc.collect()
    rss_after = rss_mb()

    # -- accuracy against the generator's ground truth ------------------
    scored = workload.scored_tasks()
    if len(scored) == workload.tasks:
        alerts = int(totals["alerts"])
    else:
        alerts = 0
        for idx in scored:
            info = await client.task_info(workload.task_name(idx))
            alerts += int(info["alerts"])
    truth = feed.truth
    # (A run scaled down to a few dozen steps may plant no violation at
    # all; there is then nothing to miss.)
    detection = alerts / truth if truth else 1.0
    ledger.check(1.0 - detection <= ERR,
                 f"misdetection {1.0 - detection:.5f} exceeds err {ERR}")

    # -- shadow replay --------------------------------------------------
    expected = shadow_replay(workload, feed.picks, feed.shadow_values())
    for name, want in expected.items():
        info = await client.task_info(name)
        got = {key: int(info[key]) for key in want}
        ledger.check(got == want,
                     f"shadow {name}: server {got} != reference {want}")

    # -- checkpoint (wire op on the post-drive state) -------------------
    checkpoint_spans: list[Span] = []
    written = ""
    for _ in range(todo.checkpoint_repeats):
        gc.collect()
        meter.start()
        written = await client.checkpoint()
        checkpoint_spans.append(meter.stop())
    ledger.check(pathlib.Path(written) == checkpoint,
                 f"checkpoint written to {written}, not {checkpoint}")
    checkpoint_bytes = checkpoint.stat().st_size
    fingerprint = state_fingerprint(read_checkpoint(checkpoint))
    frames_handled = int((await client.stats())["frames"])
    await client.close()
    await stop_server(server)
    del server

    # -- restore: a fresh server starts from that file ------------------
    restore_spans: list[Span] = []
    for _ in range(todo.restore_repeats):
        restored = host_server(workload, checkpoint)
        gc.collect()
        meter.start()
        await restored.start()
        restore_spans.append(meter.stop())
        probe = AsyncRuntimeClient(port=restored.tcp_port)
        stats = await probe.stats()
        ledger.check(stats["restored_tasks"] == workload.tasks,
                     f"restore {len(restore_spans)}: restored_tasks "
                     f"{stats['restored_tasks']} != {workload.tasks}")
        if len(restore_spans) == 1:
            await probe.checkpoint()
            again = state_fingerprint(read_checkpoint(checkpoint))
            ledger.check(again == fingerprint,
                         "state fingerprint changed across checkpoint -> "
                         "restore -> checkpoint")
        await probe.close()
        await stop_server(restored)
        del restored
    checkpoint.unlink(missing_ok=True)

    # -- fold into metrics ----------------------------------------------
    wall_per_offer = [s.wall / n for n, s in zip(seg_offers, segments)]
    offers_per_s_raw = [n / s.raw_wall for n, s in zip(seg_offers, segments)]
    cpu_us = [s.cpu / n * 1e6 for n, s in zip(seg_offers, segments)]
    cpu_us_raw = [s.raw_cpu / n * 1e6 for n, s in zip(seg_offers, segments)]
    setup_values = [sum(s.cpu for s in spans) for spans in setup_runs]
    setup_raw = [sum(s.raw_cpu for s in spans) for spans in setup_runs]
    # Chunk by chunk, so one burst spoils a sixteenth of one repeat
    # rather than the repeat.
    setup_s = sum(lower_quartile([spans[c].cpu for spans in setup_runs])
                  for c in range(_SETUP_CHUNKS))
    frame_ms.sort()
    frame_ms_raw.sort()
    n_frames = len(frame_ms)
    tail_q = tail_percentile(n_frames)
    metrics = {
        "setup_s": setup_s,
        "offers_per_s": 1.0 / lower_quartile(wall_per_offer),
        "frame_ack_p50_ms": lower_quartile(seg_frame_ms),
        "checkpoint_ms": lower_quartile(
            [s.cpu for s in checkpoint_spans]) * 1e3,
        "restore_s": lower_quartile([s.cpu for s in restore_spans]),
        "state_rss_mb": rss_after - rss_before,
        "sampling_ratio": totals["consumed"] / totals["applied"],
        "detection_rate": detection,
        "wire_bytes_per_offer": (sum(frame_wire_bytes(workload.frame_offers))
                                 / workload.frame_offers),
    }
    diagnostics = {
        "total.cpu_us_per_offer": lower_quartile(cpu_us),
        "raw.cpu_us_per_offer": statistics.median(cpu_us_raw),
        "raw.offers_per_s": statistics.median(offers_per_s_raw),
        "raw.setup_s": statistics.median(setup_raw),
        "raw.frame_ack_p50_ms": percentile(frame_ms_raw, 0.50),
        "raw.checkpoint_ms": statistics.median(
            s.raw_cpu for s in checkpoint_spans) * 1e3,
        "raw.restore_s": statistics.median(
            s.raw_cpu for s in restore_spans),
        "frame_ack_tail_ms": percentile(frame_ms, tail_q),
        "misdetection_rate": 1.0 - detection,
        "server.frames": frames_handled,
        "checkpoint.bytes": checkpoint_bytes,
        **calibration_summary(calibrator, segments),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "correct": not ledger.problems,
        "problems": ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "diagnostics": diagnostics,
        "samples": {
            "segments": todo.segments,
            "steps_per_segment": todo.steps,
            "warmup_steps": todo.warm_steps,
            "offers": sum(seg_offers),
            "frames": n_frames,
            "frame_ack_tail_percentile": tail_q,
            "truth_violations": truth,
            "alerts": alerts,
            "setup_repeats": _SETUP_REPEATS,
            "setup_chunks": _SETUP_CHUNKS,
            "checkpoint_repeats": todo.checkpoint_repeats,
            "restore_repeats": todo.restore_repeats,
        },
        "series": {
            "segment_offers": seg_offers,
            "segment_raw_cpu_s": [s.raw_cpu for s in segments],
            "segment_raw_wall_s": [s.raw_wall for s in segments],
            "segment_cpu_s": [s.cpu for s in segments],
            "segment_wall_s": [s.wall for s in segments],
            "segment_g_cpu_ms": [s.before.g_cpu for s in segments],
            "setup_s": setup_values,
            "raw_setup_s": setup_raw,
            "checkpoint_ms": [s.cpu * 1e3 for s in checkpoint_spans],
            "raw_checkpoint_ms": [s.raw_cpu * 1e3
                                  for s in checkpoint_spans],
            "restore_s": [s.cpu for s in restore_spans],
            "raw_restore_s": [s.raw_cpu for s in restore_spans],
            "all_g_cpu": [c.g_cpu for c in calibrator.samples],
        },
    }
