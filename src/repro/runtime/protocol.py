"""Wire protocol for the ingestion runtime: JSON frames + binary columns.

The baseline framing is ``<4-byte big-endian length><UTF-8 JSON object>``.
JSON keeps the protocol debuggable (``socat`` + a hexdump is a usable
client) and the length prefix keeps parsing trivial and O(frame).

Protocol version 2 adds a *binary* frame class for the hot offer path.
The top bit of the length header marks a binary body (``MAX_FRAME`` fits
comfortably in 31 bits, so the bit is free and version-1 peers that only
ever see JSON frames observe byte-identical wire traffic). Binary bodies
are struct-packed little-endian column blocks that decode straight into
numpy arrays — no per-offer Python objects on either side:

``OFFER`` (kind 0x01)
    ``<u8 kind><3 pad><u32 count>`` then ``count`` × ``<u4`` task index,
    ``count`` × ``<i8`` step, ``count`` × ``<f8`` value. Task indexes
    refer to a per-connection interning table built with the JSON
    ``intern`` op, so names cross the wire once per connection.

``OFFER_REPLY`` (kind 0x02)
    ``<u8 kind><u8 flags><u16 pad><u32 accepted><u32 shed><u32 rejected>
    <u32 retry_after_ms>``; flag bit 0 = backpressure.

``SHARD_OFFER`` (kind 0x03)
    Pre-routed fan-out for the cluster layer: ``<u8 kind><3 pad>
    <u32 nsegs>`` then ``nsegs`` × ``<u4 shard><u4 count>`` followed by
    the concatenated OFFER-style columns for all segments in order.

Negotiation is in-band: a client sends the JSON op ``hello`` announcing
``max_protocol`` and the server meets it at the lower maximum (a client
that never negotiates stays on JSON). All control ops stay JSON at every
version — binary is only for the offer fast path.

Requests are ``{"op": <name>, ...}``; replies are ``{"ok": true, ...}`` or
``{"ok": false, "error": <message>, "code": <machine-readable>}``. The
module offers both asyncio (:func:`read_frame`) and blocking
(:func:`read_frame_blocking`) readers so the sync client shares the exact
framing code path with the server, including the chaos-testing
``fault_hook`` seam.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, BinaryIO, Sequence

import numpy as np

from repro.exceptions import ProtocolError
from repro.runtime.checkpoint import _jsonable

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_JSON",
    "PROTOCOL_BINARY",
    "PROTOCOL_VERSION",
    "SHED_RETRY_MS",
    "OfferColumns",
    "OfferReply",
    "ShardOffer",
    "encode_frame",
    "encode_frame_parts",
    "encode_offer_columns",
    "encode_offer_reply",
    "encode_shard_offer",
    "intern_entries",
    "read_frame",
    "read_frame_blocking",
]

_HEADER = struct.Struct(">I")

MAX_FRAME = 16 * 1024 * 1024
"""Upper bound on frame body size; larger frames are a protocol error."""

PROTOCOL_JSON = 1
"""Protocol version 1: JSON frames only."""

PROTOCOL_BINARY = 2
"""Protocol version 2: JSON control plane + binary offer frames."""

PROTOCOL_VERSION = PROTOCOL_BINARY
"""Highest protocol version this build speaks."""

SHED_RETRY_MS = 50
"""The retry hint (``retry_after_ms``) a reply to a shed batch carries."""

_BINARY_FLAG = 0x8000_0000
_LENGTH_MASK = 0x7FFF_FFFF

KIND_OFFER = 0x01
KIND_OFFER_REPLY = 0x02
KIND_SHARD_OFFER = 0x03

_OFFER_HEAD = struct.Struct("<BxxxI")          # kind, pad, count
_REPLY_STRUCT = struct.Struct("<BBxxIIII")     # kind, flags, a, s, r, retry
_SEG_STRUCT = struct.Struct("<II")             # shard id, count

_FLAG_BACKPRESSURE = 0x01

_U4 = np.dtype("<u4")
_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


class OfferColumns:
    """Decoded binary offer batch: parallel columns, one row per offer."""

    __slots__ = ("task_idx", "steps", "values")

    def __init__(self, task_idx: np.ndarray, steps: np.ndarray,
                 values: np.ndarray) -> None:
        self.task_idx = task_idx
        self.steps = steps
        self.values = values

    def __len__(self) -> int:
        return len(self.task_idx)


class OfferReply:
    """Decoded binary offer reply (counts + backpressure signal)."""

    __slots__ = ("accepted", "shed", "rejected", "backpressure",
                 "retry_after_ms")

    def __init__(self, accepted: int, shed: int, rejected: int,
                 backpressure: bool, retry_after_ms: int) -> None:
        self.accepted = accepted
        self.shed = shed
        self.rejected = rejected
        self.backpressure = backpressure
        self.retry_after_ms = retry_after_ms


class ShardOffer:
    """Decoded pre-routed offer fan-out: ``(shard, columns)`` segments."""

    __slots__ = ("segments",)

    def __init__(self, segments: list[tuple[int, OfferColumns]]) -> None:
        self.segments = segments

    def __len__(self) -> int:
        return sum(len(cols) for _, cols in self.segments)


def encode_frame_parts(payload: dict[str, Any]) -> tuple[bytes, bytes]:
    """Serialise one JSON message as a writev-ready ``(header, body)`` pair.

    Avoids the header+body concatenation copy of :func:`encode_frame` on
    the send path — pass both parts to ``writer.writelines`` /
    ``socket.sendmsg`` instead of joining them.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame payload must be a dict, got "
                            f"{type(payload).__name__}")
    # A snapshot riding the frame holds arrays; they travel as lists.
    body = json.dumps(payload, separators=(",", ":"),
                      default=_jsonable).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body)), body


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialise one message to its contiguous wire form (header + body)."""
    header, body = encode_frame_parts(payload)
    return header + body


def _binary_parts(body: bytes) -> tuple[bytes, bytes]:
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body) | _BINARY_FLAG), body


def _as_column(data: Any, dtype: np.dtype, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim != 1:
        raise ProtocolError(f"{name} column must be one-dimensional")
    return arr


def encode_offer_columns(task_idx: Any, steps: Any,
                         values: Any) -> tuple[bytes, bytes]:
    """Encode an offer batch as a binary ``(header, body)`` frame pair."""
    idx = _as_column(task_idx, _U4, "task_idx")
    stp = _as_column(steps, _I8, "steps")
    val = _as_column(values, _F8, "values")
    if not (len(idx) == len(stp) == len(val)):
        raise ProtocolError("offer columns must share one length")
    body = b"".join((_OFFER_HEAD.pack(KIND_OFFER, len(idx)),
                     idx.tobytes(), stp.tobytes(), val.tobytes()))
    return _binary_parts(body)


def encode_offer_reply(accepted: int, shed: int, rejected: int,
                       backpressure: bool,
                       retry_after_ms: int) -> tuple[bytes, bytes]:
    """Encode a binary reply to a binary offer batch."""
    flags = _FLAG_BACKPRESSURE if backpressure else 0
    body = _REPLY_STRUCT.pack(KIND_OFFER_REPLY, flags, accepted, shed,
                              rejected, max(0, int(retry_after_ms)))
    return _binary_parts(body)


def encode_shard_offer(
        segments: Sequence[tuple[int, Any, Any, Any]]) -> tuple[bytes, bytes]:
    """Encode pre-routed ``(shard, task_idx, steps, values)`` segments."""
    parts = [_OFFER_HEAD.pack(KIND_SHARD_OFFER, len(segments))]
    columns: list[bytes] = []
    for shard, task_idx, steps, values in segments:
        idx = _as_column(task_idx, _U4, "task_idx")
        stp = _as_column(steps, _I8, "steps")
        val = _as_column(values, _F8, "values")
        if not (len(idx) == len(stp) == len(val)):
            raise ProtocolError("offer columns must share one length")
        parts.append(_SEG_STRUCT.pack(shard, len(idx)))
        columns.extend((idx.tobytes(), stp.tobytes(), val.tobytes()))
    body = b"".join(parts + columns)
    return _binary_parts(body)


def _decode_columns(body: bytes, offset: int,
                    count: int) -> tuple[OfferColumns, int]:
    need = offset + count * (4 + 8 + 8)
    if len(body) < need:
        raise ProtocolError("binary offer frame truncated")
    idx = np.frombuffer(body, dtype=_U4, count=count, offset=offset)
    offset += count * 4
    stp = np.frombuffer(body, dtype=_I8, count=count, offset=offset)
    offset += count * 8
    val = np.frombuffer(body, dtype=_F8, count=count, offset=offset)
    offset += count * 8
    return OfferColumns(idx, stp, val), offset


def decode_binary(body: bytes) -> OfferColumns | OfferReply | ShardOffer:
    """Decode a binary frame body; raises ProtocolError on malformed input."""
    if not body:
        raise ProtocolError("empty binary frame")
    kind = body[0]
    if kind == KIND_OFFER:
        if len(body) < _OFFER_HEAD.size:
            raise ProtocolError("binary offer frame truncated")
        _, count = _OFFER_HEAD.unpack_from(body)
        cols, end = _decode_columns(body, _OFFER_HEAD.size, count)
        if end != len(body):
            raise ProtocolError("binary offer frame has trailing bytes")
        return cols
    if kind == KIND_OFFER_REPLY:
        if len(body) != _REPLY_STRUCT.size:
            raise ProtocolError("binary reply frame has wrong size")
        _, flags, accepted, shed, rejected, retry = _REPLY_STRUCT.unpack(body)
        return OfferReply(accepted, shed, rejected,
                          bool(flags & _FLAG_BACKPRESSURE), retry)
    if kind == KIND_SHARD_OFFER:
        if len(body) < _OFFER_HEAD.size:
            raise ProtocolError("binary shard frame truncated")
        _, nsegs = _OFFER_HEAD.unpack_from(body)
        offset = _OFFER_HEAD.size
        if len(body) < offset + nsegs * _SEG_STRUCT.size:
            raise ProtocolError("binary shard frame truncated")
        heads = [_SEG_STRUCT.unpack_from(body, offset + i * _SEG_STRUCT.size)
                 for i in range(nsegs)]
        offset += nsegs * _SEG_STRUCT.size
        segments: list[tuple[int, OfferColumns]] = []
        for shard, count in heads:
            cols, offset = _decode_columns(body, offset, count)
            segments.append((shard, cols))
        if offset != len(body):
            raise ProtocolError("binary shard frame has trailing bytes")
        return ShardOffer(segments)
    raise ProtocolError(f"unknown binary frame kind 0x{kind:02x}")


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(payload).__name__}")
    return payload


def _split_header(raw: int) -> tuple[int, bool]:
    length = raw & _LENGTH_MASK
    if length > MAX_FRAME:
        raise ProtocolError(
            f"peer announced a {length}-byte frame; limit is {MAX_FRAME}")
    return length, bool(raw & _BINARY_FLAG)


def _finish_body(body: bytes, length: int, binary: bool,
                 fault_hook: Any) -> Any:
    if fault_hook is not None and fault_hook.enabled:
        mutated = fault_hook.frame_body(body)
        if mutated is None:
            return None
        if len(mutated) < length:
            raise ProtocolError("connection closed mid-frame") from None
        body = mutated
    if binary:
        return decode_binary(body)
    return _decode_body(body)


async def read_frame(reader: asyncio.StreamReader,
                     fault_hook: Any = None) -> Any:
    """Read one frame; ``None`` on clean EOF (peer closed between frames).

    Returns a ``dict`` for JSON frames or an :class:`OfferColumns` /
    :class:`OfferReply` / :class:`ShardOffer` for binary frames (which
    only arrive after the peer negotiated protocol ≥ 2). Raises
    :class:`~repro.exceptions.ProtocolError` on truncation mid-frame,
    oversized frames, or malformed bodies.

    Args:
        reader: the connection's stream reader.
        fault_hook: chaos-testing seam (a ``repro.testkit`` ``FaultHook``);
            when enabled it may mutate the body after a complete read —
            truncation/corruption then surfaces exactly as the matching
            wire failure would, and a ``None`` body reads as a peer that
            vanished between frames.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid-header") from None
        return None
    (raw,) = _HEADER.unpack(header)
    length, binary = _split_header(raw)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return _finish_body(body, length, binary, fault_hook)


def read_frame_blocking(stream: BinaryIO, fault_hook: Any = None) -> Any:
    """Blocking twin of :func:`read_frame` over a file-like byte stream.

    Shares the async reader's semantics, including the ``fault_hook``
    chaos seam, so testkit plans cover the sync client path too.
    """
    header = _read_exactly(stream, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (raw,) = _HEADER.unpack(header)
    length, binary = _split_header(raw)
    body = _read_exactly(stream, length, allow_eof=False)
    assert body is not None
    return _finish_body(body, length, binary, fault_hook)


def _read_exactly(stream: BinaryIO, n: int,
                  allow_eof: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def intern_entries(table: list[str | None], entries: Any, limit: int,
                   noun: str) -> str | None:
    """Install ``[index, name]`` pairs in an intern ``table``, in place.

    The one statement of what an ``intern`` / ``w_intern`` frame may
    carry: a list of pairs, each an integer index in ``[0, limit)`` (the
    caller's ``noun`` for it names it in errors) and a string name.
    Indexes are caller-assigned and may repoint a slot; the table grows
    to fit. A frame is applied whole or not at all: returns None when
    applied, else what was wrong with it.
    """
    if not isinstance(entries, list):
        return f"intern needs a 'tasks' list of [{noun}, name]"
    for entry in entries:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or isinstance(entry[0], bool)
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], str)):
            return f"each intern entry must be [{noun}, name]"
        if not 0 <= entry[0] < limit:
            return f"intern {noun} {entry[0]} out of range [0, {limit})"
    for idx, name in entries:
        if idx >= len(table):
            table.extend([None] * (idx + 1 - len(table)))
        table[idx] = name
    return None
