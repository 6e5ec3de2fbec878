"""Atomic checkpoint persistence for the ingestion runtime.

A checkpoint is one document holding every shard's full
:meth:`~repro.service.MonitoringService.snapshot` plus the task→shard map
and counters. Writes go through a same-directory temp file + ``os.replace``
so a crash mid-write leaves the previous checkpoint intact — readers see
either the old complete state or the new complete state, never a torn file.

File format version 3 (``CHECKPOINT_VERSION``; not the snapshot
documents' own ``repro.service.SNAPSHOT_VERSION``, which a checkpoint
carries inside) is a JSON head line, a column section and a trailer::

    {"checkpoint_version":3,"columns":[[path,dtype,count],...],"state":{...}}
    <every packed column's raw little-endian bytes, in table order>
    crc32:<8 hex>

Every list of at least ``_MIN_PACKED`` elements that are all ``float``,
all ``int`` within int64 or all ``bool`` — a snapshot's dense columns —
is written to the column section as ``f8``, ``i8`` or ``b1`` and left
``null`` in the head's ``state``; the table gives the key path back to
it, its dtype and its length. Everything else stays JSON, a list holding
one value a column cannot carry (an int wider than 64 bits, a ``None``,
an int among floats) included, so :func:`read_checkpoint` returns the
identical document: same keys, same values, same element types, ``-0.0``
and ``nan`` included. The table lives beside the state, not in it, so
the codec reserves no key of the document. To read or diff a file as
text: ``json.dumps(read_checkpoint(path), indent=1, sort_keys=True)``.

The ``crc32:`` trailer covers head and columns. The atomic writer makes
torn files impossible through *this* code path, but checkpoints also
travel — partial copies, filesystem corruption, backup tools interrupted
mid-stream — and a file cut at the right place could still parse. The
checksum closes that hole: :func:`read_checkpoint` refuses any file whose
trailer is missing or does not match, and any head or column table that
does not describe the bytes it sits on, with
:class:`~repro.exceptions.CheckpointError`, instead of loading partial
shard state. Only the format this module writes is read: a file of an
earlier format — format 2 was the whole document as one JSON body —
fails closed, naming both versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import zlib
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.testkit.faults import FaultHook

__all__ = ["CHECKPOINT_VERSION", "read_checkpoint", "state_fingerprint",
           "write_checkpoint"]

CHECKPOINT_VERSION = 3

_TRAILER = re.compile(rb"\ncrc32:([0-9a-f]{8})\n?\Z")

# Lists shorter than this stay in the JSON head. A packed column costs a
# table entry, an array build and a walk down its path on read, ~3 us
# whatever its length; JSON costs per element. Sweep (us to write + read
# a 4-shard document of 512 lists of n elements, the mean over all-float,
# all-int and all-bool lists; numpy 2.4 / CPython 3.11):
#   n          1     2     4     8    12    16    32    64
#   packed  2381  2349  2446  2569  2731  2851  3406  4835
#   JSON     806   967  1324  2029  2759  3490  6610 12737
# They cross at 12. Alone, floats cross near 5, ints near 32 and bools
# above 64; one threshold for all three costs at most ~3 us a list, and
# only on lists as short as a shard of fewer than 64 tasks has.
_MIN_PACKED = 12

# A column's dtype by the name its table entry gives, and the one Python
# type whose lists are packed as it.
_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8"), "b1": np.dtype("?")}
_PACKED = {float: "f8", int: "i8", bool: "b1"}


def state_fingerprint(state: Mapping[str, Any]) -> str:
    """Stable fingerprint of a JSON-able state dict (canonical SHA-256).

    Two states with equal fingerprints are byte-identical up to dict
    ordering. This is the equality the bit-identical-restore invariant is
    stated in, and what the cluster migration protocol compares before
    cutting a shard over to its target worker.
    """
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _pack(value: Any, path: tuple, table: list, chunks: list) -> Any:
    """``value`` with every packable list under it swapped for ``None``,
    its table entry and bytes appended to ``table`` and ``chunks``; the
    very object when nothing under it was packed (nothing is copied but
    the containers on the way to a column)."""
    if type(value) is dict:
        out = value
        for key, item in value.items():
            # JSON spells a non-string key as a string, which no path
            # could name: what is under one stays JSON.
            if type(item) in (dict, list) and type(key) is str:
                packed = _pack(item, path + (key,), table, chunks)
                if packed is not item:
                    if out is value:
                        out = dict(value)
                    out[key] = packed
        return out
    kinds = set(map(type, value))
    if len(value) >= _MIN_PACKED and len(kinds) == 1:
        name = _PACKED.get(next(iter(kinds)))
        if name is not None:
            try:
                chunks.append(np.array(value, _DTYPES[name]).tobytes())
            except OverflowError:  # an int wider than 64 bits: stay JSON
                return value
            table.append([list(path), name, len(value)])
            return None
    if dict not in kinds and list not in kinds:
        return value
    out = value
    for index, item in enumerate(value):
        if type(item) in (dict, list):
            packed = _pack(item, path + (index,), table, chunks)
            if packed is not item:
                if out is value:
                    out = list(value)
                out[index] = packed
    return out


def _encode(state: dict[str, Any]) -> bytes:
    table: list[list[Any]] = []
    chunks: list[bytes] = []
    head = {"checkpoint_version": CHECKPOINT_VERSION, "columns": table,
            "state": _pack(state, (), table, chunks)}
    body = b"".join([json.dumps(head, separators=(",", ":")).encode("utf-8"),
                     b"\n", *chunks])
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


def _slot(node: Any, key: Any) -> bool:
    """Whether ``node[key]`` is a slot the head holds (no negative or
    boolean index into a list, no non-string key into an object)."""
    if type(node) is dict:
        return type(key) is str and key in node
    return (type(node) is list and type(key) is int
            and 0 <= key < len(node))


def _unpack(head: dict[str, Any], raw: bytes, start: int, end: int,
            path: pathlib.Path) -> dict[str, Any]:
    """The document ``head`` describes, its columns read from
    ``raw[start:end]``."""
    state, table = head.get("state"), head.get("columns")
    if type(state) is not dict or type(table) is not list:
        raise CheckpointError(
            f"checkpoint {path} has no state object and column table")
    at = start
    for entry in table:
        if type(entry) is not list or len(entry) != 3:
            raise CheckpointError(
                f"checkpoint {path} has a malformed column entry {entry!r}")
        keys, name, count = entry
        dtype = _DTYPES.get(name) if type(name) is str else None
        if dtype is None:
            raise CheckpointError(
                f"checkpoint {path} column {keys!r} has unknown dtype "
                f"{name!r}")
        if type(count) is not int or count < 0:
            raise CheckpointError(
                f"checkpoint {path} column {keys!r} has a bad element "
                f"count {count!r}")
        if at + count * dtype.itemsize > end:
            raise CheckpointError(
                f"checkpoint {path} column {keys!r} of {count} elements "
                f"runs past the end of its column section")
        node, last = state, None
        if type(keys) is list and keys:
            *parents, last = keys
            for key in parents:
                node = node[key] if _slot(node, key) else None
        if not (_slot(node, last) and node[last] is None):
            raise CheckpointError(
                f"checkpoint {path} column path {keys!r} names no empty "
                f"slot of its state")
        node[last] = np.frombuffer(raw, dtype, count, at).tolist()
        at += count * dtype.itemsize
    if at != end:
        raise CheckpointError(
            f"checkpoint {path} holds {end - at} bytes its column table "
            f"does not describe")
    return state


def read_checkpoint(path: pathlib.Path | str) -> dict[str, Any]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Returns the document written, with ``checkpoint_version`` set.
    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    missing, unparsable, truncated, checksum-mismatched, inconsistent
    with its own column table, or from another format version.
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from None
    # The trailer is the file's last 16 bytes (15 without its newline);
    # the body is checksummed in place, and the columns are read straight
    # out of the file's bytes.
    trailer = _TRAILER.search(raw, max(len(raw) - 16, 0))
    end = len(raw) if trailer is None else trailer.start()
    # The head is the first line; a format-2 body is one line, all head.
    head_end = raw.find(b"\n", 0, end)
    if head_end < 0:
        head_end = end
    try:
        if trailer is None:
            raw[:head_end].decode("utf-8")  # or else: which of the two
            raise CheckpointError(
                f"checkpoint {path} has no checksum trailer; the file was "
                f"truncated or predates format version {CHECKPOINT_VERSION}")
        crc = zlib.crc32(memoryview(raw)[:end])
        if crc != int(trailer.group(1), 16):
            raise CheckpointError(
                f"checkpoint {path} failed its checksum "
                f"(stored {trailer.group(1).decode()}, computed {crc:08x}); "
                f"the file is corrupt or was truncated mid-write")
        head = json.loads(raw[:head_end])
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(head, dict):
        raise CheckpointError(
            f"checkpoint {path} must hold a JSON object, got "
            f"{type(head).__name__}")
    version = head.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; this "
            f"runtime reads format version {CHECKPOINT_VERSION}")
    state = _unpack(head, raw, min(head_end + 1, end), end, path)
    state["checkpoint_version"] = version
    return state
