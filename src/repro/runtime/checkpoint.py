"""Atomic checkpoint persistence for the ingestion runtime.

A checkpoint is one document holding every shard's full
:meth:`~repro.service.MonitoringService.snapshot` and counters, the
trigger plans and the pending registrations (DESIGN.md S26). Writes go
through a same-directory temp file + ``os.replace`` so a crash mid-write
leaves the previous checkpoint intact — readers see either the old
complete state or the new complete state, never a torn file.

File format version 5 (``CHECKPOINT_VERSION``; not the snapshot
documents' own ``repro.service.SNAPSHOT_VERSION``, which a checkpoint
carries inside) is a JSON head line, a column section and a trailer::

    {"checkpoint_version":5,"columns":[[path,dtype,count],...],"state":{...}}
    <every packed column's raw bytes, in table order>
    crc32:<8 hex>

Every list of at least ``_MIN_PACKED`` elements that are all ``float``,
all ``int`` within int64 or all ``bool``, and every one-dimensional
``f8``, ``i8`` or ``b1`` array of as many — a snapshot's dense columns,
whichever form they take — is written to the column section as
little-endian ``f8``, ``i8`` or ``b1`` and left ``null`` in the head's
``state``; the table gives the key path back to it, its dtype and its
length. A list of as many ``str`` — a snapshot's names, directions and
window kinds — is a ``str`` column: its strings UTF-8 encoded and joined
by NUL bytes, its table count the byte length. Everything else stays
JSON, a list holding one value a column cannot carry (an int wider than
64 bits, a ``None``, an int among floats, a string holding a NUL or a
lone surrogate) included; any other array is written as the list it
holds. So one document writes the same bytes whether its columns are
lists or arrays, and :func:`read_checkpoint` returns it with the same
keys and values, each packed number column as a read-only array of its
dtype (``-0.0`` and ``nan`` as bits) and each ``str`` column as the
list of its strings: what
:meth:`~repro.service.MonitoringService.restore` loads without a list in
between, and what ``state_fingerprint`` cannot tell from the list. The
table lives beside the state, not in it, so the codec reserves no key of
the document. To read or diff a file as text: ``json.dumps(
read_checkpoint(path), indent=1, sort_keys=True,
default=numpy.ndarray.tolist)``.

The writer streams the column section from each column's own buffer —
an array as it is (a strided view gathered once), a packed list as one
array of its elements, a ``str`` column as its UTF-8 bytes — and folds
the CRC over the parts one by one, so no column is copied on its way to
the file. Only an enabled fault hook is handed the parts joined, its
``checkpoint_body`` seam taking and returning whole bytes.

The ``crc32:`` trailer covers head and columns. The atomic writer makes
torn files impossible through *this* code path, but checkpoints also
travel — partial copies, filesystem corruption, backup tools interrupted
mid-stream — and a file cut at the right place could still parse. The
checksum closes that hole: :func:`read_checkpoint` refuses any file whose
trailer is missing or does not match, and any head or column table that
does not describe the bytes it sits on, with
:class:`~repro.exceptions.CheckpointError`, instead of loading partial
shard state. Only the format this module writes is read: a file of an
earlier format fails closed, naming both versions. Format 4 was this
one with every string in the head; format 3 had this framing around the
two servers' two older documents; format 2 was the whole document as
one JSON body.
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

CHECKPOINT_VERSION = 5

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
# type whose lists — and the dtype whose arrays — are packed as it. A
# ``str`` column is UTF-8 bytes, its count a byte count; no array is
# packed as one.
_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8"), "b1": np.dtype("?"),
           "str": np.dtype("u1")}
_PACKED = {float: "f8", int: "i8", bool: "b1", str: "str"}
_PACKED_DTYPES = {dtype: name for name, dtype in _DTYPES.items()
                  if name != "str"}
# What separates a str column's strings, so no string of one holds it.
_NUL = "\0"
# What _pack walks into: a column, or a container that may hold one.
_NODES = (dict, list, np.ndarray)


def _jsonable(value: Any) -> list:
    """``json.dumps``'s ``default=`` wherever a snapshot becomes JSON
    text (a fingerprint, a wire frame, a stash): an array is written as
    the list it holds, so the text cannot tell the two forms apart."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def state_fingerprint(state: Mapping[str, Any]) -> str:
    """Stable fingerprint of a JSON-able state dict (canonical SHA-256).

    Two states with equal fingerprints are byte-identical up to dict
    ordering, a column held as an array equal to one held as the list of
    its elements. This is the equality the bit-identical-restore
    invariant is stated in, and what the cluster migration protocol
    compares before cutting a shard over to its target worker.
    """
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"),
                           default=_jsonable)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _pack(value: Any, path: tuple, table: list, chunks: list) -> Any:
    """``value`` with every packable list or array under it swapped for
    ``None``, its table entry and buffer appended to ``table`` and
    ``chunks``; the very object when nothing under it was packed
    (nothing is copied but the containers on the way to a column), and
    an array that is not packed as the list it holds. A packed array is
    its own buffer (a strided view gathered once), a packed list one
    array of its elements, a ``str`` column its UTF-8 bytes."""
    if type(value) is dict:
        out = value
        for key, item in value.items():
            # JSON spells a non-string key as a string, which no path
            # could name: what is under one stays JSON.
            if type(item) in _NODES and type(key) is str:
                packed = _pack(item, path + (key,), table, chunks)
                if packed is not item:
                    if out is value:
                        out = dict(value)
                    out[key] = packed
        return out
    if type(value) is np.ndarray:
        # The list rule without the scan: the dtype is the element type.
        name = _PACKED_DTYPES.get(value.dtype)
        if value.ndim == 1 and len(value) >= _MIN_PACKED and name:
            chunks.append(np.ascontiguousarray(value))
            table.append([list(path), name, len(value)])
            return None
        # Anything else is the list it holds, and goes the list's way.
        value = value.tolist()
        if type(value) is not list:  # a 0-d array's one element
            return value
    kinds = set(map(type, value))
    if len(value) >= _MIN_PACKED and len(kinds) == 1:
        name = _PACKED.get(next(iter(kinds)))
        if name == "str":
            # A NUL would split a string in two, and a lone surrogate has
            # no UTF-8: a list holding either stays JSON.
            joined = _NUL.join(value)
            try:
                chunk = joined.encode("utf-8")
            except UnicodeEncodeError:
                return value
            if joined.count(_NUL) != len(value) - 1:
                return value
            chunks.append(chunk)
            table.append([list(path), name, len(chunk)])
            return None
        if name is not None:
            try:
                chunks.append(np.array(value, _DTYPES[name]))
            except OverflowError:  # an int wider than 64 bits: stay JSON
                return value
            table.append([list(path), name, len(value)])
            return None
    if kinds.isdisjoint(_NODES):
        return value
    out = value
    for index, item in enumerate(value):
        if type(item) in _NODES:
            packed = _pack(item, path + (index,), table, chunks)
            if packed is not item:
                if out is value:
                    out = list(value)
                out[index] = packed
    return out


def _encode(state: dict[str, Any]) -> list[Any]:
    """The file's parts — head, ``b"\\n"``, every column's buffer, the
    trailer — with the CRC folded over them one by one, so no column is
    copied to be written."""
    table: list[list[Any]] = []
    chunks: list[Any] = []
    head = {"checkpoint_version": CHECKPOINT_VERSION, "columns": table,
            "state": _pack(state, (), table, chunks)}
    parts = [json.dumps(head, separators=(",", ":"),
                        default=_jsonable).encode("utf-8"), b"\n", *chunks]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [*parts, b"\ncrc32:%08x\n" % crc]


def write_checkpoint(path: pathlib.Path | str, state: dict[str, Any],
                     fault_hook: "FaultHook | None" = None) -> pathlib.Path:
    """Atomically persist a runtime state dict; returns the final path.

    Args:
        path: final checkpoint location.
        state: the runtime state (JSON-able, its columns lists or
            arrays).
        fault_hook: chaos-testing seam (``repro.testkit``); the production
            default injects nothing.

    Raises :class:`~repro.exceptions.CheckpointError` when the filesystem
    refuses the write (callers — the periodic checkpoint loop, the
    ``checkpoint`` wire op — degrade gracefully instead of dying).
    """
    path = pathlib.Path(path)
    try:
        parts = _encode(state)
        if fault_hook is not None and fault_hook.enabled:
            parts = [fault_hook.checkpoint_body(b"".join(parts))]
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.writelines(parts)
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
    """The document ``head`` describes, its columns read-only views of
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
        if name == "str":
            try:
                node[last] = raw[at:at + count].decode("utf-8").split(_NUL)
            except UnicodeDecodeError as exc:
                raise CheckpointError(
                    f"checkpoint {path} column {keys!r} is not valid "
                    f"UTF-8: {exc}") from None
        else:
            node[last] = np.frombuffer(raw, dtype, count, at)
        at += count * dtype.itemsize
    if at != end:
        raise CheckpointError(
            f"checkpoint {path} holds {end - at} bytes its column table "
            f"does not describe")
    return state


def read_checkpoint(path: pathlib.Path | str) -> dict[str, Any]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Returns the document written, with ``checkpoint_version`` set,
    each packed number column a read-only ``f8`` / ``i8`` / ``b1`` array
    and each ``str`` column the list of its strings.
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
