"""Atomic checkpoint persistence for the ingestion runtime.

A checkpoint is one JSON document holding every shard's full
:meth:`~repro.service.MonitoringService.snapshot` plus the task→shard map
and counters. Writes go through a same-directory temp file + ``os.replace``
so a crash mid-write leaves the previous checkpoint intact — readers see
either the old complete state or the new complete state, never a torn file.

File format version 2 (``CHECKPOINT_VERSION``; not the snapshot
documents' own ``repro.service.SNAPSHOT_VERSION``, which a checkpoint
carries inside) appends a ``crc32:<8 hex>`` trailer line covering the
JSON body. The atomic writer makes torn files impossible through *this*
code path, but checkpoints also travel — partial copies, filesystem
corruption, backup tools interrupted mid-stream — and a truncated JSON
document can still parse if it happens to be cut at a token boundary.
The checksum closes that hole: :func:`read_checkpoint` refuses any
version-2 document whose trailer is missing or does not match, so a
damaged checkpoint raises :class:`~repro.exceptions.CheckpointError`
instead of silently loading partial shard state. A file with no trailer
at all — including the un-checksummed version-1 format — fails closed the
same way.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import zlib
from typing import TYPE_CHECKING, Any, Mapping

from repro.exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.testkit.faults import FaultHook

__all__ = ["CHECKPOINT_VERSION", "read_checkpoint", "state_fingerprint",
           "write_checkpoint"]

CHECKPOINT_VERSION = 2

_TRAILER = re.compile(rb"\ncrc32:([0-9a-f]{8})\n?\Z")


def state_fingerprint(state: Mapping[str, Any]) -> str:
    """Stable fingerprint of a JSON-able state dict (canonical SHA-256).

    Two states with equal fingerprints are byte-identical up to dict
    ordering. This is the equality the bit-identical-restore invariant is
    stated in, and what the cluster migration protocol compares before
    cutting a shard over to its target worker.
    """
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode(state: dict[str, Any]) -> bytes:
    payload = dict(state)
    payload["checkpoint_version"] = CHECKPOINT_VERSION
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return body + b"\ncrc32:%08x\n" % zlib.crc32(body)


def write_checkpoint(path: pathlib.Path | str, state: dict[str, Any],
                     fault_hook: "FaultHook | None" = None) -> pathlib.Path:
    """Atomically persist a runtime state dict; returns the final path.

    Args:
        path: final checkpoint location.
        state: the runtime state (JSON-able).
        fault_hook: chaos-testing seam (``repro.testkit``); the production
            default injects nothing.

    Raises :class:`~repro.exceptions.CheckpointError` when the filesystem
    refuses the write (callers — the periodic checkpoint loop, the
    ``checkpoint`` wire op — degrade gracefully instead of dying).
    """
    path = pathlib.Path(path)
    try:
        data = _encode(state)
        if fault_hook is not None and fault_hook.enabled:
            data = fault_hook.checkpoint_body(data)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path}: {exc}") from None
    # fsync the directory so the rename itself survives power loss.
    # Best-effort: some platforms/filesystems refuse to fsync a directory.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover
        return path
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(dir_fd)
    return path


def read_checkpoint(path: pathlib.Path | str) -> dict[str, Any]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    missing, unparsable, truncated, checksum-mismatched, or from an
    incompatible format version.
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from None
    # The trailer is the file's last 16 bytes (15 without its newline);
    # the multi-MB body is sliced, checksummed and parsed once each.
    trailer = _TRAILER.search(raw, max(len(raw) - 16, 0))
    try:
        if trailer is None:
            raw.decode("utf-8")  # or else: which of the two it is
            raise CheckpointError(
                f"checkpoint {path} has no checksum trailer; the file was "
                f"truncated or predates format version {CHECKPOINT_VERSION}")
        body = raw[:trailer.start()]
        crc = zlib.crc32(body)
        if crc != int(trailer.group(1), 16):
            raise CheckpointError(
                f"checkpoint {path} failed its checksum "
                f"(stored {trailer.group(1).decode()}, computed {crc:08x}); "
                f"the file is corrupt or was truncated mid-write")
        state = json.loads(body)
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint {path} must hold a JSON object, got "
            f"{type(state).__name__}")
    version = state.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}; this runtime "
            f"reads version {CHECKPOINT_VERSION}")
    return state
