"""Seeded offer-stream generator for the benchmark workloads.

The server only ever sees frames produced here; ``--seed`` picks the
stream. Generation is one RNG draw per grid step, so a stream depends
on ``(seed, spec)`` alone — never on how it is later cut into frames or
segments. That is what lets ``bulk-quiet`` (16384-offer frames),
``small-frames`` (64-offer frames) and ``cluster-inproc`` drive *the
same* per-task values and be compared decision for decision.

Two value models:

``quiet``
    per-task baseline spread over [40, 70] plus AR(1) noise (phi 0.8)
    whose sd scales with the task's headroom (``gap / sd`` spans 15 to
    120), with planted 28-step incidents (16 ramp / 8 hold / 4 decay to
    a peak in U(104, 125)) covering ~0.4 % of points. Far from the
    threshold (100) almost always, so the sampler backs off — each task
    as far as its own noise lets it — and every ``value > threshold``
    point comes from a planted incident, which is the ground truth the
    detection rate is scored against. The population (baselines, noise
    levels, incident count per step) is the same for every seed; the seed
    shuffles who gets what, so count metrics barely move across seeds.

``hot``
    i.i.d. N(94, 4): every task hovers just under the threshold, ~7 %
    of points violate, and the sampler is pinned at interval 1.

*Followers* rise with a leader task's incidents ``lag`` steps later and
fall 4 steps before them (own baseline, own noise): the trigger-guarded
tasks of ``typed-mix`` follow the tasks that guard them, as a correlated
pair would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Frame", "Stream", "StreamSpec", "THRESHOLD", "cut_frames",
           "frames"]

THRESHOLD = 100.0

_PHI = 0.8
_INNOVATION = (1.0 - _PHI * _PHI) ** 0.5   # keeps the stationary sd at 1
_GAP_OVER_SD = (15.0, 120.0)
_EPISODE = np.concatenate([np.arange(1, 17) / 16.0,     # ramp
                           np.ones(8),                  # hold
                           np.arange(3, -1, -1) / 4.0])  # decay
_EPISODE_START_P = 0.004 / len(_EPISODE)
_FOLLOWER_LEAD = 4
_EPISODE_PADDED = np.concatenate([_EPISODE, np.zeros(_FOLLOWER_LEAD)])
_HOT_MEAN, _HOT_SD = 94.0, 4.0


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one workload's stream.

    ``followers`` is ``(first, leader_first, count, lag)``: tasks
    ``first .. first+count-1`` replay the incidents of tasks
    ``leader_first ..`` after ``lag`` steps, and plant none of their own.
    ``stagger`` spreads each task's first offered step over
    ``[0, stagger)`` — collectors of a fleet do not come online in the
    same instant, and samplers that do start together adapt in lockstep.
    ``blocks`` cuts the tasks into that many equal contiguous blocks,
    each given the same population and the same share of incidents: set
    it to the number of task kinds a workload lays out block by block.
    """

    tasks: int
    kind: str = "quiet"
    followers: tuple[int, int, int, int] | None = None
    stagger: int = 0
    blocks: int = 1


@dataclass(frozen=True)
class Frame:
    """One offer frame: parallel columns, step-major, task-minor."""

    task_idx: np.ndarray   # <u4
    steps: np.ndarray      # <i8
    values: np.ndarray     # <f8

    def __len__(self) -> int:
        return len(self.task_idx)

    def tobytes(self) -> bytes:
        return b"".join((self.task_idx.tobytes(), self.steps.tobytes(),
                         self.values.tobytes()))


class Stream:
    """Stateful per-step value generator; ``take(n)`` yields the next
    ``n`` grid steps as an ``(n, tasks)`` float64 matrix."""

    def __init__(self, seed: int, spec: StreamSpec):
        if spec.kind not in ("quiet", "hot"):
            raise ValueError(f"unknown stream kind {spec.kind!r}")
        self.spec = spec
        self.step = 0
        self._rng = np.random.default_rng([int(seed), spec.tasks,
                                           0 if spec.kind == "quiet" else 1])
        n = spec.tasks
        if n % spec.blocks:
            raise ValueError(f"{n} tasks do not split into {spec.blocks} "
                             f"equal blocks")
        # The same population of baselines for every seed (and, with
        # ``blocks``, for every block of tasks), reshuffled.
        self._base = self._shuffled(np.linspace(40.0, 70.0,
                                                n // spec.blocks))
        # Noise scales with each task's headroom: gap / sd spans
        # _GAP_OVER_SD, so the interval a task can sustain under the
        # Cantelli bound ranges from ~2 to the cap, and noisy tasks keep
        # resetting and regrowing. That spreads sampling phases out, as in
        # a real fleet; with one noise level every task would grow its
        # interval in lockstep and grid steps would alternate between
        # all-due and none-due.
        ratio = self._shuffled(np.geomspace(*_GAP_OVER_SD, n // spec.blocks))
        self._sd = (THRESHOLD - self._base) / ratio
        self._noise = self._rng.normal(0.0, 1.0, size=n) * self._sd
        self._peak = np.zeros(n)
        self._pos = np.full(n, -1, dtype=np.int64)   # -1 = no incident
        self._own = np.ones(n, dtype=bool)           # plants its own
        self._lagged: list[np.ndarray] = []
        self.first_step = (self._rng.integers(0, spec.stagger, size=n)
                           if spec.stagger else np.zeros(n, dtype=np.int64))
        self._due = 0.0
        self._starts_per_step = _EPISODE_START_P * n
        if spec.followers is not None:
            first, leader, count, lag = spec.followers
            self._own[first:first + count] = False
            self._lagged = [np.zeros(count) for _ in range(lag)]
        # Incidents are dealt, not drawn: a fixed number start per step,
        # going round the blocks in turn and through each block in a
        # seed-shuffled order. Every seed thus plants the same number of
        # incidents on every block; the seed picks which task is next.
        order = self._shuffled(np.arange(n // spec.blocks)).reshape(
            spec.blocks, -1) + (np.arange(spec.blocks)
                                * (n // spec.blocks))[:, None]
        deal = order.T.reshape(-1)
        self._deal = deal[self._own[deal]]
        self._dealt = 0

    def _shuffled(self, block: np.ndarray) -> np.ndarray:
        """``spec.blocks`` independently shuffled copies of ``block``,
        concatenated."""
        return np.concatenate([self._rng.permutation(block)
                               for _ in range(self.spec.blocks)])

    def _next_quiet(self) -> np.ndarray:
        rng = self._rng
        n = self.spec.tasks
        self._noise = (_PHI * self._noise
                       + rng.normal(0.0, _INNOVATION, size=n) * self._sd)
        self._due += self._starts_per_step
        starting = int(self._due)
        self._due -= starting
        peaks = rng.uniform(104.0, 125.0, size=max(starting, 1))
        for k in range(starting):
            task = self._deal[self._dealt % len(self._deal)]
            self._dealt += 1
            if self._pos[task] < 0:     # still in its last incident: skip
                self._pos[task] = 0
                self._peak[task] = peaks[k]
        live = self._pos >= 0
        shape = np.zeros(n)
        ahead = np.zeros(n)     # the shape _FOLLOWER_LEAD steps from now
        if live.any():
            shape[live] = _EPISODE[self._pos[live]]
            ahead[live] = _EPISODE_PADDED[self._pos[live] + _FOLLOWER_LEAD]
            self._pos[live] += 1
            self._pos[self._pos >= len(_EPISODE)] = -1
        lift = shape * (self._peak - self._base)
        if self.spec.followers is not None:
            first, leader, count, _lag = self.spec.followers
            # Rise ``lag`` steps after the leader and fall
            # _FOLLOWER_LEAD steps before it, toward the leader's peak
            # from the follower's own baseline: the follower's incident
            # nests inside the leader's with a frame's worth of margin on
            # either side, so a guard armed by the leader is up before it
            # and until after it whatever order the shards apply a frame
            # in.
            self._lagged.append(shape[leader:leader + count])
            nested = np.minimum(self._lagged.pop(0),
                                ahead[leader:leader + count])
            lift[first:first + count] = nested * (
                self._peak[leader:leader + count]
                - self._base[first:first + count])
        return self._base + self._noise + lift

    def take(self, n_steps: int) -> np.ndarray:
        out = np.empty((n_steps, self.spec.tasks), dtype=np.float64)
        if self.spec.kind == "hot":
            for i in range(n_steps):
                out[i] = self._rng.normal(_HOT_MEAN, _HOT_SD,
                                          size=self.spec.tasks)
        else:
            for i in range(n_steps):
                out[i] = self._next_quiet()
        self.step += n_steps
        return out


def cut_frames(values: np.ndarray, first: int, frame_offers: int,
               first_step: np.ndarray | None = None) -> Iterator[Frame]:
    """Cut an ``(n_steps, tasks)`` value matrix starting at grid step
    ``first`` into frames of ``frame_offers`` grid points, step-major.
    Points before a task's ``first_step`` are not offered: frames inside
    the stagger window are smaller, and empty ones are skipped."""
    n_steps, tasks = values.shape
    total = n_steps * tasks
    if total % frame_offers:
        raise ValueError(
            f"{n_steps} steps of {tasks} tasks do not fill whole frames "
            f"of {frame_offers} offers")
    flat = values.reshape(-1)
    staggered = first_step is not None and first < int(first_step.max()) + 1
    for lo in range(0, total, frame_offers):
        pos = np.arange(lo, lo + frame_offers, dtype=np.int64)
        task_idx = pos % tasks
        steps = first + pos // tasks
        frame_values = flat[lo:lo + frame_offers]
        if staggered:
            live = steps >= first_step[task_idx]
            if not live.any():
                continue
            task_idx, steps = task_idx[live], steps[live]
            frame_values = frame_values[live]
        yield Frame(task_idx=task_idx.astype("<u4"),
                    steps=steps.astype("<i8"),
                    values=frame_values.astype("<f8"))


def frames(stream: Stream, frame_offers: int, n_frames: int,
           ) -> Iterator[Frame]:
    """The stream's next ``n_frames`` frames (whole grid steps only, so
    consecutive calls continue the stream seamlessly)."""
    tasks = stream.spec.tasks
    total = frame_offers * n_frames
    if total % tasks:
        raise ValueError(
            f"{n_frames} frames of {frame_offers} offers do not cover "
            f"whole steps of {tasks} tasks")
    first = stream.step
    values = stream.take(total // tasks)
    return cut_frames(values, first, frame_offers, stream.first_step)
