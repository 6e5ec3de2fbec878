"""The generator's contract: seeds, framing, and what the streams do to
the system under test."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from calibrate import Calibrator
from e2e import Drive, Feed, Ledger, Meter, setup_server, stop_server
from streams import THRESHOLD, Stream, StreamSpec, frames
from workloads import ERR, MAX_INTERVAL, by_name

from repro.core.task import TaskSpec
from repro.service import MonitoringService

QUIET = StreamSpec(256, "quiet", stagger=60)


def _bytes(seed: int, spec: StreamSpec, frame_offers: int,
           n_frames: int) -> bytes:
    return b"".join(frame.tobytes() for frame in
                    frames(Stream(seed, spec), frame_offers, n_frames))


def test_same_seed_gives_byte_identical_frames():
    assert _bytes(7, QUIET, 1024, 40) == _bytes(7, QUIET, 1024, 40)
    hot = StreamSpec(256, "hot")
    assert _bytes(7, hot, 1024, 8) == _bytes(7, hot, 1024, 8)


def test_different_seed_gives_different_frames():
    assert _bytes(7, QUIET, 1024, 40) != _bytes(8, QUIET, 1024, 40)


def test_frame_size_does_not_change_the_offer_sequence():
    def offers(frame_offers: int, n_frames: int):
        batch = list(frames(Stream(3, QUIET), frame_offers, n_frames))
        return tuple(np.concatenate([getattr(f, col) for f in batch])
                     for col in ("task_idx", "steps", "values"))

    big, small = offers(1024, 32), offers(64, 512)
    for a, b in zip(big, small):
        assert np.array_equal(a, b)


def test_stream_does_not_depend_on_how_it_is_taken():
    whole = Stream(5, QUIET).take(90)
    stream = Stream(5, QUIET)
    pieces = np.concatenate([stream.take(n) for n in (1, 29, 60)])
    assert np.array_equal(whole, pieces)


def test_staggered_tasks_are_not_offered_before_their_first_step():
    stream = Stream(11, QUIET)
    first = stream.first_step.copy()
    assert first.min() >= 0 and first.max() < 60 and len(set(first)) > 10
    for frame in frames(stream, 256, 70):
        assert (frame.steps >= first[frame.task_idx]).all()


def test_quiet_stream_lets_the_sampler_back_off_and_stays_accurate():
    """sampling_ratio in [0.15, 0.5] and mis-detection under err, on a
    seed the workloads were not tuned on."""
    spec = StreamSpec(512, "quiet", stagger=60)
    stream = Stream(424242, spec)
    service = MonitoringService(soa=True)
    for i in range(spec.tasks):
        service.add_task(f"t{i}", TaskSpec(threshold=THRESHOLD,
                                           error_allowance=ERR,
                                           max_interval=MAX_INTERVAL))
    rows = np.asarray([service.soa_row_for(f"t{i}")
                       for i in range(spec.tasks)])
    applied = consumed = truth = 0
    steady_applied = steady_consumed = 0
    for step in range(1800):
        values = stream.take(1)[0]
        live = stream.first_step <= step
        truth += int((values[live] > THRESHOLD).sum())
        a, c, rejected, _ = service.offer_columns(
            rows[live], np.full(int(live.sum()), step), values[live])
        assert rejected == 0
        applied += a
        consumed += c
        if step >= 640:
            steady_applied += a
            steady_consumed += c
    alerts = sum(len(service.alerts(f"t{i}")) for i in range(spec.tasks))
    assert truth > 500
    assert 0.15 <= steady_consumed / steady_applied <= 0.5
    assert 1.0 - alerts / truth <= ERR


def test_hot_stream_pins_every_task_at_interval_one():
    spec = StreamSpec(128, "hot")
    stream = Stream(9, spec)
    service = MonitoringService(soa=True)
    for i in range(spec.tasks):
        service.add_task(f"t{i}", TaskSpec(threshold=THRESHOLD,
                                           error_allowance=ERR,
                                           max_interval=MAX_INTERVAL))
    rows = np.asarray([service.soa_row_for(f"t{i}")
                       for i in range(spec.tasks)])
    applied = consumed = 0
    values = stream.take(300)
    for step in range(300):
        a, c, _, _ = service.offer_columns(
            rows, np.full(spec.tasks, step), values[step])
        applied += a
        consumed += c
    assert consumed == applied
    assert 0.04 < (values > THRESHOLD).mean() < 0.10


async def _decisions(workload_name: str, seed: int, steps: int,
                     tmp_path) -> dict[str, int]:
    """Drive ``steps`` grid steps of a workload's stream in its own frame
    size through its own server; the decisions the server took."""
    workload = by_name(workload_name)
    with Calibrator() as calibrator:
        server, client, _ = await setup_server(
            workload, Meter(calibrator), tmp_path / f"{workload_name}.ckpt")
        try:
            drive = Drive(client, Ledger())
            feed = Feed(workload, seed)
            for frame in feed.next(steps, workload.frame_offers):
                await drive.send(frame)
            totals = await drive.barrier(workload_name)
            assert not drive.ledger.problems, drive.ledger.problems
            assert drive.ledger.failed == 0
        finally:
            await client.close()
            await stop_server(server)
    return {key: totals[key] for key in ("applied", "consumed", "alerts")}


@pytest.mark.parametrize("other", ["cluster-inproc", "small-frames"])
def test_same_stream_same_decisions(other, tmp_path):
    """runtime == cluster, and frame size does not change decisions:
    ``consumed`` and ``alerts_fired`` agree over the same step prefix."""
    steps = 96
    base = asyncio.run(_decisions("bulk-quiet", 31, steps, tmp_path))
    again = asyncio.run(_decisions(other, 31, steps, tmp_path))
    assert base["applied"] > 0 and base["consumed"] < base["applied"]
    assert again == base
