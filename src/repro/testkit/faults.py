"""Deterministic fault injection for the ingestion runtime (DESIGN.md S28).

A chaos run is fully described by a ``(seed, spec)`` pair:
:class:`FaultSpec` says *which* faults may fire and how often,
:class:`FaultPlan` compiles that pair into a pure function from
``(seam, event index)`` to a fault decision. Nothing is drawn lazily from
shared RNG state — every decision is a stable hash of
``seed:seam:index`` — so two independent observers of the same plan (the
injection hook inside the server and the scenario driver building its
shadow reference) compute byte-identical schedules, and any failure
reproduces from its ``(seed, spec)`` pair alone.

The runtime sees faults only through the :class:`FaultHook` interface.
Production code holds the :data:`NOOP_HOOK` singleton whose ``enabled``
flag is ``False``; every seam is guarded by that flag, so the hot path
pays one attribute load and a falsy check per *batch* (never per update).
:class:`PlanFaultHook` is the live implementation: it keeps per-seam
event counters, consults the plan, and records everything it injected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "FaultHook",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "NOOP_HOOK",
    "PlanFaultHook",
    "stable_uniform",
]


def stable_uniform(seed: int, seam: str, index: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one seam event.

    A pure function of its arguments (stable across processes, platforms
    and ``PYTHONHASHSEED``), so independent observers of the same seed
    always agree — the property every deterministic schedule in the
    testkit rests on.
    """
    key = f"{seed}:{seam}:{index}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64

# Frame-level fault actions (mutually exclusive per frame, decided by one
# draw so the individual rates compose deterministically).
FRAME_OK = "ok"
FRAME_DROP = "drop"
FRAME_TRUNCATE = "truncate"
FRAME_CORRUPT = "corrupt"

# Checkpoint-write fault actions.
CKPT_OK = "ok"
CKPT_TORN = "torn"
CKPT_CORRUPT = "corrupt"
CKPT_OSERROR = "oserror"


class InjectedFault(RuntimeError):
    """Raised by a fault hook to simulate an unexpected internal error.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: the point
    is to exercise the runtime's handling of exceptions it never
    anticipated (the host drain loop's reject-and-continue path).
    """


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Which faults a chaos run may inject, and how often.

    All ``*_rate`` attributes are probabilities in ``[0, 1]`` evaluated
    independently per event by the plan's stable hash. Counts and
    fractions describe scheduled one-shot faults.

    Attributes:
        drop_connection_rate: an inbound frame vanishes and the server
            treats the connection as closed by the peer (clean EOF).
        truncate_frame_rate: an inbound frame body is cut short before
            decoding — the length prefix now lies.
        corrupt_frame_rate: a byte of an inbound frame body is flipped.
        duplicate_frame_rate: a decoded ``offer_batch`` frame is
            dispatched twice (one reply) — duplicated delivery.
        force_shed_rate: a shard batch is shed as if its queue were full,
            exercising the backpressure reply deterministically.
        shard_error_rate: the host drain loop's ``apply`` raises an
            :class:`InjectedFault` for a whole shard batch.
        torn_checkpoint_rate: a checkpoint write persists only a prefix
            of its bytes (simulated torn write / partial copy).
        corrupt_checkpoint_rate: a checkpoint write persists with one
            byte flipped.
        checkpoint_oserror_rate: a checkpoint write fails with
            :class:`OSError` (disk full, permissions).
        clock_skew_rate: an outgoing update's step is perturbed by the
            driver (simulated clock skew between collectors).
        clock_skew_max: largest absolute step perturbation.
        crash_fractions: fractions of the scenario's step horizon at
            which the driver hard-crashes the server (no drain, no final
            checkpoint) and restarts it from the last checkpoint.
    """

    drop_connection_rate: float = 0.0
    truncate_frame_rate: float = 0.0
    corrupt_frame_rate: float = 0.0
    duplicate_frame_rate: float = 0.0
    force_shed_rate: float = 0.0
    shard_error_rate: float = 0.0
    torn_checkpoint_rate: float = 0.0
    corrupt_checkpoint_rate: float = 0.0
    checkpoint_oserror_rate: float = 0.0
    clock_skew_rate: float = 0.0
    clock_skew_max: int = 0
    crash_fractions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            if f.name.endswith("_rate"):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise ConfigurationError(
                        f"{f.name} must be in [0, 1], got {value}")
        frame_total = (self.drop_connection_rate + self.truncate_frame_rate
                       + self.corrupt_frame_rate)
        if frame_total > 1.0:
            raise ConfigurationError(
                f"frame fault rates must sum to <= 1, got {frame_total}")
        ckpt_total = (self.torn_checkpoint_rate
                      + self.corrupt_checkpoint_rate
                      + self.checkpoint_oserror_rate)
        if ckpt_total > 1.0:
            raise ConfigurationError(
                f"checkpoint fault rates must sum to <= 1, got {ckpt_total}")
        if self.clock_skew_max < 0:
            raise ConfigurationError(
                f"clock_skew_max must be >= 0, got {self.clock_skew_max}")
        if not isinstance(self.crash_fractions, tuple):
            object.__setattr__(self, "crash_fractions",
                               tuple(self.crash_fractions))
        for frac in self.crash_fractions:
            if not 0.0 < frac < 1.0:
                raise ConfigurationError(
                    f"crash fractions must lie in (0, 1), got {frac}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form, embedded in conformance reports."""
        out: dict[str, Any] = {}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, entry: dict[str, Any]) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` (reproducing a report)."""
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(entry) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec key(s) {sorted(unknown)}")
        kwargs = dict(entry)
        if "crash_fractions" in kwargs:
            kwargs["crash_fractions"] = tuple(kwargs["crash_fractions"])
        return cls(**kwargs)


class FaultPlan:
    """A ``(seed, spec)`` pair compiled into a deterministic schedule.

    Every decision is a pure function of ``(seed, seam, index)`` — no
    mutable RNG state — so decisions can be queried in any order, from
    any process, and always agree. The scenario driver exploits this to
    *replay* the schedule the in-server hook executes.
    """

    __slots__ = ("seed", "spec")

    def __init__(self, seed: int, spec: FaultSpec):
        self.seed = int(seed)
        self.spec = spec

    def _draw(self, seam: str, index: int) -> float:
        """Stable uniform draw in ``[0, 1)`` for one seam event."""
        return stable_uniform(self.seed, seam, index)

    def _pick(self, seam: str, index: int,
              actions: list[tuple[str, float]], default: str) -> str:
        """One draw shared by mutually exclusive actions."""
        u = self._draw(seam, index)
        edge = 0.0
        for action, rate in actions:
            edge += rate
            if u < edge:
                return action
        return default

    # -- seam decisions -------------------------------------------------

    def frame_fault(self, index: int) -> str:
        """Fate of the ``index``-th armed inbound frame."""
        spec = self.spec
        return self._pick("frame", index, [
            (FRAME_DROP, spec.drop_connection_rate),
            (FRAME_TRUNCATE, spec.truncate_frame_rate),
            (FRAME_CORRUPT, spec.corrupt_frame_rate),
        ], FRAME_OK)

    def duplicate_offer(self, index: int) -> bool:
        """Whether the ``index``-th dispatched offer frame is duplicated."""
        return (self.spec.duplicate_frame_rate > 0.0
                and self._draw("dup", index)
                < self.spec.duplicate_frame_rate)

    def force_shed(self, index: int) -> bool:
        """Whether the ``index``-th shard enqueue is shed as if full."""
        return (self.spec.force_shed_rate > 0.0
                and self._draw("shed", index) < self.spec.force_shed_rate)

    def shard_fault(self, shard_id: int, index: int) -> bool:
        """Whether the shard's ``index``-th apply call raises."""
        return (self.spec.shard_error_rate > 0.0
                and self._draw(f"apply:{shard_id}", index)
                < self.spec.shard_error_rate)

    def checkpoint_fault(self, index: int) -> str:
        """Fate of the ``index``-th armed checkpoint write."""
        spec = self.spec
        return self._pick("checkpoint", index, [
            (CKPT_TORN, spec.torn_checkpoint_rate),
            (CKPT_CORRUPT, spec.corrupt_checkpoint_rate),
            (CKPT_OSERROR, spec.checkpoint_oserror_rate),
        ], CKPT_OK)

    def skew(self, task_index: int, step: int) -> int:
        """Signed step perturbation for one outgoing update (driver-side)."""
        spec = self.spec
        if spec.clock_skew_rate <= 0.0 or spec.clock_skew_max <= 0:
            return 0
        seam = f"skew:{task_index}"
        if self._draw(seam, step) >= spec.clock_skew_rate:
            return 0
        span = 2 * spec.clock_skew_max + 1
        offset = int(self._draw(seam + ":amt", step) * span) \
            - spec.clock_skew_max
        return offset

    def crash_steps(self, total_steps: int) -> tuple[int, ...]:
        """Absolute grid steps at which the driver hard-crashes the server."""
        return tuple(sorted({max(1, int(frac * total_steps))
                             for frac in self.spec.crash_fractions}))

    # -- deterministic byte mutations -----------------------------------

    def truncate_bytes(self, body: bytes, index: int, seam: str) -> bytes:
        """Cut a body to a deterministic strict prefix (possibly empty)."""
        if len(body) <= 1:
            return b""
        keep = int(self._draw(seam + ":cut", index) * (len(body) - 1))
        return body[:keep]

    def corrupt_bytes(self, body: bytes, index: int, seam: str) -> bytes:
        """Flip one deterministic byte of a body."""
        if not body:
            return body
        pos = int(self._draw(seam + ":pos", index) * len(body))
        pos = min(pos, len(body) - 1)
        flip = 1 + int(self._draw(seam + ":bit", index) * 255)
        mutated = bytearray(body)
        mutated[pos] ^= flip
        return bytes(mutated)


class FaultHook:
    """Injection seam interface; this base class is the production no-op.

    The runtime calls these methods at its seams, always guarded by
    :attr:`enabled` (class attribute ``False`` here), so production
    deployments pay no per-update cost. Subclasses flip ``enabled`` and
    implement real injection.
    """

    enabled = False

    def frame_body(self, body: bytes) -> bytes | None:
        """Transform an inbound frame body; ``None`` = peer vanished."""
        return body

    def duplicate_frame(self, request: dict[str, Any]) -> bool:
        """Whether a dispatched ``offer_batch`` frame is delivered twice."""
        return False

    def note_duplicate_reply(self, reply: dict[str, Any]) -> None:
        """Record the (discarded) reply of a duplicated dispatch."""

    def force_shed(self, shard_id: int) -> bool:
        """Whether a shard enqueue is shed as if the queue were full."""
        return False

    def before_apply(self, shard_id: int, batch_size: int) -> None:
        """Called before a shard applies a batch; may raise a fault."""

    def checkpoint_body(self, body: bytes) -> bytes:
        """Transform checkpoint bytes before the write; may raise OSError."""
        return body


NOOP_HOOK = FaultHook()
"""The production singleton: every seam disabled, zero injection."""


class PlanFaultHook(FaultHook):
    """Executes a :class:`FaultPlan` at the runtime's seams.

    Keeps one monotonically increasing event counter per seam — the
    counters survive server restarts (the scenario passes the same hook
    to every incarnation) so the schedule continues across a crash
    exactly where it stopped. :attr:`injected` summarises everything
    that fired, for the conformance report.
    """

    enabled = True

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.armed = True
        self.checkpoint_armed = True
        # Per-seam event counters.
        self._frame_index = 0
        self._dup_index = 0
        self._shed_index = 0
        self._apply_index: dict[int, int] = {}
        self._checkpoint_index = 0
        # What actually fired.
        self.injected: dict[str, int] = {
            "frames_dropped": 0,
            "frames_truncated": 0,
            "frames_corrupted": 0,
            "frames_duplicated": 0,
            "duplicate_updates_accepted": 0,
            "batches_shed": 0,
            "apply_faults": 0,
            "checkpoints_torn": 0,
            "checkpoints_corrupted": 0,
            "checkpoint_oserrors": 0,
        }

    # -- wire seam (server connection handler / protocol reader) --------

    def frame_body(self, body: bytes) -> bytes | None:
        if not self.armed:
            return body
        index = self._frame_index
        self._frame_index += 1
        action = self.plan.frame_fault(index)
        if action == FRAME_DROP:
            self.injected["frames_dropped"] += 1
            return None
        if action == FRAME_TRUNCATE:
            self.injected["frames_truncated"] += 1
            return self.plan.truncate_bytes(body, index, "frame")
        if action == FRAME_CORRUPT:
            self.injected["frames_corrupted"] += 1
            mutated = self.plan.corrupt_bytes(body, index, "frame")
            # A one-byte flip could, rarely, leave the body decodable —
            # a flip inside a JSON string may still parse, and a flip in
            # a binary column is *always* a structurally valid frame —
            # the server would then apply garbage and diverge from the
            # scenario driver's shadow reference. Guarantee the
            # corruption is *detectably* malformed. Binary bodies (the
            # first byte is a frame kind, never JSON's ``{``) get their
            # kind byte forced to 0xff, an unknown kind; JSON bodies that
            # still parse get a leading 0xff, never valid UTF-8.
            if body[:1] != b"{":
                return b"\xff" + mutated[1:]
            try:
                json.loads(mutated)
            except (ValueError, UnicodeDecodeError):
                return mutated
            return b"\xff" + mutated[1:]
        return body

    def duplicate_frame(self, request: dict[str, Any]) -> bool:
        if not self.armed:
            return False
        index = self._dup_index
        self._dup_index += 1
        fire = self.plan.duplicate_offer(index)
        if fire:
            self.injected["frames_duplicated"] += 1
        return fire

    def note_duplicate_reply(self, reply: dict[str, Any]) -> None:
        self.injected["duplicate_updates_accepted"] += \
            int(reply.get("accepted", 0))

    # -- shard seams ----------------------------------------------------

    def force_shed(self, shard_id: int) -> bool:
        if not self.armed:
            return False
        index = self._shed_index
        self._shed_index += 1
        fire = self.plan.force_shed(index)
        if fire:
            self.injected["batches_shed"] += 1
        return fire

    def before_apply(self, shard_id: int, batch_size: int) -> None:
        index = self._apply_index.get(shard_id, 0)
        self._apply_index[shard_id] = index + 1
        if self.armed and self.plan.shard_fault(shard_id, index):
            self.injected["apply_faults"] += 1
            raise InjectedFault(
                f"injected shard fault (shard {shard_id}, apply #{index})")

    # -- checkpoint seam ------------------------------------------------

    def checkpoint_body(self, body: bytes) -> bytes:
        if not self.checkpoint_armed:
            return body
        index = self._checkpoint_index
        self._checkpoint_index += 1
        action = self.plan.checkpoint_fault(index)
        if action == CKPT_OSERROR:
            self.injected["checkpoint_oserrors"] += 1
            raise OSError(f"injected checkpoint write failure (#{index})")
        if action == CKPT_TORN:
            self.injected["checkpoints_torn"] += 1
            torn = self.plan.truncate_bytes(body, index, "checkpoint")
            # Never tear by only the trailing newline: that prefix is
            # still a fully valid checkpoint. Cutting into the checksum
            # trailer (or earlier) guarantees the reader rejects it.
            return torn[:max(0, len(body) - 2)]
        if action == CKPT_CORRUPT:
            self.injected["checkpoints_corrupted"] += 1
            return self.plan.corrupt_bytes(body, index, "checkpoint")
        return body
