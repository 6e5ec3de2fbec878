"""Checkpoint persistence and service snapshot/restore tests."""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import pathlib
import zlib
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hosting import WorkerHost
from repro.cluster.transport import InProcTransport
from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.online_stats import OnlineStatistics
from repro.core.soa import (SoaSamplerEngine, sampler_state_columns,
                            sampler_state_dict)
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.checkpoint import (_MIN_PACKED, CHECKPOINT_VERSION,
                                      read_checkpoint, state_fingerprint,
                                      write_checkpoint)
from repro.runtime.protocol import encode_frame_parts
from repro.service import SNAPSHOT_VERSION, MonitoringService
from repro.testkit.faults import (NOOP_HOOK, FaultPlan, FaultSpec,
                                  PlanFaultHook)


def task(threshold=100.0, err=0.01, max_interval=10):
    return TaskSpec(threshold=threshold, error_allowance=err,
                    max_interval=max_interval)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, {"shard_count": 2, "shards": []})
        state = read_checkpoint(path)
        assert state["shard_count"] == 2
        assert state["checkpoint_version"] == CHECKPOINT_VERSION

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, {"x": 1})
        write_checkpoint(path, {"x": 2})
        assert read_checkpoint(path)["x"] == 2
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "absent.json")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        body = json.dumps({"checkpoint_version": 999})
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        path.write_text(f"{body}\ncrc32:{crc:08x}\n")
        with pytest.raises(CheckpointError, match="version 999"):
            read_checkpoint(path)


def _regions(raw):
    """``(head, columns, trailer)`` byte ranges of a checkpoint file."""
    head_end = raw.index(b"\n")
    trailer = raw.rindex(b"\ncrc32:")
    return {"head": (0, head_end), "columns": (head_end + 1, trailer),
            "trailer": (trailer, len(raw))}


def _rewrite_head(path, edit):
    """Apply ``edit`` to the parsed head of the file at ``path`` and write
    it back under a fresh, matching checksum."""
    raw = path.read_bytes()
    body = raw[:raw.rindex(b"\ncrc32:")]
    head_end = body.index(b"\n")
    head = json.loads(body[:head_end])
    edit(head)
    body = json.dumps(head).encode("utf-8") + body[head_end:]
    path.write_bytes(body + b"\ncrc32:%08x\n" % zlib.crc32(body))


class TestChecksumTrailer:
    """Damaged checkpoints must raise, not load.

    Before the checksum trailer existed, a truncated checkpoint that
    happened to be cut at a JSON token boundary would parse and silently
    restore partial shard state. The trailer covers the JSON head and the
    column section alike.
    """

    STATE = {"shard_count": 2,
             "shards": [{"x": [0.5 * i for i in range(_MIN_PACKED)]},
                        {"y": list(range(_MIN_PACKED)),
                         "up": [True, False] * _MIN_PACKED,
                         "names": [f"t{i}" for i in range(_MIN_PACKED)]}],
             "task_shard": {"a": 0}}

    def _write(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, dict(self.STATE))
        return path

    def test_file_carries_crc_trailer(self, tmp_path):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        assert raw.splitlines()[-1].startswith(b"crc32:")
        head = json.loads(raw[:raw.index(b"\n")])
        assert head["checkpoint_version"] == CHECKPOINT_VERSION == 5
        assert [entry[1:] for entry in head["columns"]] == [
            ["f8", _MIN_PACKED], ["i8", _MIN_PACKED], ["b1", 2 * _MIN_PACKED],
            ["str", len("\0".join(self.STATE["shards"][1]["names"]))]]
        state = read_checkpoint(path)
        assert state.pop("checkpoint_version") == CHECKPOINT_VERSION
        _identical(state, self.STATE)

    @pytest.mark.parametrize("region", ["head", "columns", "trailer"])
    def test_a_flipped_byte_in_each_region_raises(self, tmp_path, region):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        lo, hi = _regions(raw)[region]
        raw[(lo + hi) // 2] ^= 0x20
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    @pytest.mark.parametrize("region", ["head", "columns", "trailer"])
    def test_a_cut_inside_each_region_raises(self, tmp_path, region):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        lo, hi = _regions(raw)[region]
        path.write_bytes(raw[:(lo + hi) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_a_format_2_file_fails_closed_naming_both_formats(self,
                                                              tmp_path):
        # Format 2: the whole document as one JSON body under a valid
        # trailer. Nothing upgrades it.
        path = tmp_path / "ckpt.json"
        body = json.dumps(dict(self.STATE, checkpoint_version=2)).encode()
        path.write_bytes(body + b"\ncrc32:%08x\n" % zlib.crc32(body))
        with pytest.raises(CheckpointError,
                           match=r"format version 2;.*format version 5\b"):
            read_checkpoint(path)

    def test_a_format_3_file_fails_closed_naming_both_formats(self,
                                                              tmp_path):
        # Format 3: this framing around the two servers' older documents
        # (a cluster's kept a per-task catalog the one reader ignores).
        # Nothing upgrades it.
        raw = self._write(tmp_path).read_bytes()
        head_end = raw.index(b"\n")
        head = json.loads(raw[:head_end])
        head["checkpoint_version"] = 3
        body = json.dumps(head).encode() + raw[head_end:raw.rindex(b"crc32:")
                                               - 1]
        path = tmp_path / "format3.ckpt"
        path.write_bytes(body + b"\ncrc32:%08x\n" % zlib.crc32(body))
        with pytest.raises(CheckpointError,
                           match=r"format version 3;.*format version 5\b"):
            read_checkpoint(path)

    def test_a_format_4_file_fails_closed_naming_both_formats(self,
                                                              tmp_path):
        # Format 4: this framing with every string in the head. Nothing
        # upgrades it.
        path = self._write(tmp_path)
        _rewrite_head(path, lambda head: head.update(checkpoint_version=4))
        with pytest.raises(CheckpointError,
                           match=r"format version 4;.*format version 5\b"):
            read_checkpoint(path)

    def test_losing_only_the_final_newline_is_harmless(self, tmp_path):
        # The trailer's closing newline is optional: cutting exactly one
        # byte leaves body + checksum intact, and the file still loads.
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        assert read_checkpoint(path)["shard_count"] == 2

    @pytest.mark.parametrize("cut", [2, 3, 8, 40])
    def test_truncated_file_raises(self, tmp_path, cut):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - cut])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_truncation_at_json_token_boundary_raises(self, tmp_path):
        # The historical hole: strip the trailer and the columns and cut
        # the head so it is still *valid JSON* — the reader must still
        # reject it.
        path = self._write(tmp_path)
        raw = path.read_bytes()
        head = raw[:raw.index(b"\n")]
        truncated = head[:head.rindex(b",\"task_shard\"")] + b"}}"
        assert json.loads(truncated)  # would have loaded before the fix
        path.write_bytes(truncated)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_file_without_trailer_raises(self, tmp_path):
        # A whole file whose trailer was stripped (e.g. by a text-mode
        # copy that dropped "binary garbage" lines) is indistinguishable
        # from a truncated one — reject it.
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.rindex(b"\ncrc32:")])
        with pytest.raises(CheckpointError, match="checksum trailer"):
            read_checkpoint(path)

    def test_single_flipped_byte_raises(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x20  # flip inside the JSON body
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_legacy_v1_file_without_trailer_fails_closed(self, tmp_path):
        # The un-checksummed v1 format is no longer read: with no trailer
        # to verify, a v1 file is indistinguishable from a truncated one.
        path = tmp_path / "ckpt.json"
        legacy = dict(self.STATE, checkpoint_version=1)
        path.write_text(json.dumps(legacy))
        with pytest.raises(CheckpointError, match="checksum trailer"):
            read_checkpoint(path)

    def test_write_oserror_becomes_checkpoint_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(CheckpointError, match="cannot write"):
            write_checkpoint(blocker / "ckpt.json", {"x": 1})

    def test_non_utf8_file_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(CheckpointError, match="UTF-8"):
            read_checkpoint(path)


def _dtype(head, name):
    head["columns"][0][1] = name


def _count(head, count):
    head["columns"][0][2] = count


def _keys(head, keys):
    head["columns"][0][0] = keys


def _entry(head, entry):
    head["columns"][0] = entry


def _str_count(head, count):
    """Set the ``str`` column's byte length (the last column) to
    ``count`` of it."""
    last = head["columns"][-1]
    assert last[1] == "str"
    last[2] = count(last[2])


class TestColumnTable:
    """A head whose column table does not describe the bytes after it —
    checksummed, so only a writer other than this one makes one — is a
    ``CheckpointError``, never an ``IndexError``, ``KeyError`` or
    ``ValueError`` from walking it."""

    CASES = [
        ("unknown-dtype", lambda h: _dtype(h, "f4"), "unknown dtype"),
        ("dtype-not-a-name", lambda h: _dtype(h, ["f8"]), "unknown dtype"),
        ("offset-past-the-end",
         lambda h: h["columns"].append([["shards", 0, "x"], "b1", 1]),
         "past the end"),
        ("count-past-the-end", lambda h: _count(h, 1 << 40), "past the end"),
        ("negative-count", lambda h: _count(h, -1), "bad element count"),
        ("count-not-an-int", lambda h: _count(h, 8.0), "bad element count"),
        ("short-count", lambda h: _count(h, _MIN_PACKED - 1),
         "does not describe"),
        ("missing-key", lambda h: _keys(h, ["shards", 0, "gone"]),
         "no empty slot"),
        ("missing-object", lambda h: _keys(h, ["gone", 0, "x"]),
         "no empty slot"),
        ("index-out-of-range", lambda h: _keys(h, ["shards", 9, "x"]),
         "no empty slot"),
        ("negative-index", lambda h: _keys(h, ["shards", -2, "x"]),
         "no empty slot"),
        ("string-index", lambda h: _keys(h, ["shards", "0", "x"]),
         "no empty slot"),
        ("unhashable-key", lambda h: _keys(h, [["shards"], 0, "x"]),
         "no empty slot"),
        ("empty-path", lambda h: _keys(h, []), "no empty slot"),
        ("path-not-a-list", lambda h: _keys(h, "shards"), "no empty slot"),
        ("slot-not-empty", lambda h: _keys(h, ["task_shard", "a"]),
         "no empty slot"),
        ("one-slot-twice",
         lambda h: h["columns"].insert(1, list(h["columns"][0])),
         "no empty slot"),
        ("entry-not-a-triple", lambda h: _entry(h, ["f8", 16]), "malformed"),
        ("entry-not-a-list", lambda h: _entry(h, None), "malformed"),
        ("str-count-past-the-end", lambda h: _str_count(h, lambda n: 1 << 40),
         "past the end"),
        ("str-count-short", lambda h: _str_count(h, lambda n: n - 1),
         "does not describe"),
        # 0.5 as f8 holds the byte pair e0 3f, which no UTF-8 text does.
        ("str-not-utf8", lambda h: _entry(h, [["shards", 0, "x"], "str",
                                              8 * _MIN_PACKED]),
         "not valid UTF-8"),
        ("no-table", lambda h: h.pop("columns"), "column table"),
        ("state-not-an-object", lambda h: h.update(state=[]),
         "column table"),
    ]

    @pytest.mark.parametrize("edit, culprit", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_is_a_checkpoint_error(self, tmp_path, edit, culprit):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, dict(TestChecksumTrailer.STATE))
        _rewrite_head(path, edit)
        with pytest.raises(CheckpointError, match=culprit):
            read_checkpoint(path)


_NAN = float("nan")
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, _NAN, -_NAN, math.inf, -math.inf, 5e-324, -5e-324,
     -2.2e-308])
_INT64 = st.integers(-(1 << 63), (1 << 63) - 1) | st.sampled_from(
    [-(1 << 63), (1 << 63) - 1])
_WIDE = st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 90])
_LEAVES = (_FLOATS | _INT64 | _WIDE | st.booleans() | st.text(max_size=3)
           | st.none())


def _runs(element):
    """Lists of ``element`` on and around the packing threshold."""
    return st.integers(0, 3).flatmap(lambda size: st.lists(
        element, min_size=size, max_size=size)) | st.sampled_from(
        [_MIN_PACKED - 1, _MIN_PACKED, _MIN_PACKED + 1]).flatmap(
        lambda size: st.lists(element, min_size=size, max_size=size))


def _arrays(element, dtype, shape=(-1,)):
    """:func:`_runs` of ``element`` as arrays of ``dtype``."""
    return _runs(element).map(
        lambda values: np.array(values, dtype=dtype).reshape(shape))


_COLUMNS = (_runs(_FLOATS) | _runs(_INT64) | _runs(st.booleans())
            | _runs(st.text(max_size=3))
            | _runs(_INT64 | _WIDE) | _runs(_FLOATS | _INT64)
            | _runs(_FLOATS | st.none()) | _runs(_LEAVES))
# What an engine snapshot holds, and arrays the codec writes as the list
# they hold: another dtype, another byte order, another shape, no shape.
_ARRAYS = (_arrays(_FLOATS, "<f8") | _arrays(_INT64, "<i8")
           | _arrays(st.booleans(), "?"))
_OTHER_ARRAYS = (_arrays(st.integers(-(1 << 31), (1 << 31) - 1), "<i4")
                 | _arrays(_FLOATS, ">f8") | _arrays(_FLOATS, "<f8", (-1, 1))
                 | _FLOATS.map(np.array))


def _read_only(array):
    view = array.view()
    view.flags.writeable = False
    return view


# Packed columns as views the writer cannot hand to the file as they
# are — every other element of an array twice as long, the array
# reversed — and as read-only views.
_VIEWS = (_ARRAYS.map(lambda array: np.repeat(array, 2)[::2])
          | _ARRAYS.map(lambda array: array[::-1])
          | _ARRAYS.map(_read_only))
# Keys include the head's own, at every depth, to show none is reserved.
_KEYS = st.sampled_from(["columns", "state", "shards", "x"]) \
    | st.text(max_size=4)
_DOCS = st.dictionaries(
    _KEYS.filter(lambda key: key != "checkpoint_version"),
    st.recursive(_LEAVES | _COLUMNS | _ARRAYS | _VIEWS | _OTHER_ARRAYS,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(_KEYS, inner, max_size=3),
                 max_leaves=12),
    max_size=5)
_PACKS = {float: np.dtype("<f8"), int: np.dtype("<i8"), bool: np.dtype("?")}


def _packed_as(written):
    """The dtype the codec packs ``written`` — a list or an array — as,
    or ``None`` where it stays JSON: at least ``_MIN_PACKED`` elements
    of one packable type (ints within int64), or a 1-D array of a
    packable dtype."""
    if isinstance(written, np.ndarray):
        return written.dtype if (written.ndim == 1
                                 and len(written) >= _MIN_PACKED
                                 and written.dtype in _PACKS.values()) \
            else None
    kinds = set(map(type, written))
    if len(written) < _MIN_PACKED or len(kinds) != 1 or not kinds <= set(
            _PACKS) or kinds == {int} and not all(
            -(1 << 63) <= value < 1 << 63 for value in written):
        return None
    return _PACKS[kinds.pop()]


def _identical(read, written):
    """What ``write_checkpoint`` of ``written`` reads back as: a packed
    list or array a read-only array of its dtype — an array's very bytes,
    a list's very elements — and any other array the list it holds; at
    every other leaf ``type(a) is type(b)``, keys in the same order and
    floats equal as JSON spells them (``-0.0`` apart from ``0.0``, any
    ``nan`` equal to any ``nan``)."""
    if isinstance(written, (list, np.ndarray)):
        dtype = _packed_as(written)
        if dtype is not None:
            assert type(read) is np.ndarray and read.dtype == dtype
            assert not read.flags.writeable
            if isinstance(written, np.ndarray):
                assert read.tobytes() == written.tobytes()
            else:
                assert len(read) == len(written)
                for a, b in zip(read.tolist(), written):
                    _identical(a, b)
            return
        if isinstance(written, np.ndarray):
            _identical(read, written.tolist())
            return
    assert type(read) is type(written), (read, written)
    if isinstance(written, dict):
        assert list(read) == list(written)
        for key in written:
            _identical(read[key], written[key])
    elif isinstance(written, list):
        assert len(read) == len(written)
        for a, b in zip(read, written):
            _identical(a, b)
    elif isinstance(written, float) and math.isnan(written):
        assert math.isnan(read)
    elif isinstance(written, float):
        assert read == written
        assert math.copysign(1.0, read) == math.copysign(1.0, written)
    else:
        assert read == written


def _as_lists(doc):
    """``doc`` with every array the list it holds."""
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(value) for value in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def _as_arrays(doc):
    """``doc`` with every list of one packable type — any length — the
    equal array of that type's dtype."""
    if isinstance(doc, dict):
        return {key: _as_arrays(value) for key, value in doc.items()}
    if not isinstance(doc, list):
        return doc
    kinds = set(map(type, doc))
    if len(kinds) == 1 and kinds <= set(_PACKS):
        try:
            return np.array(doc, dtype=_PACKS[kinds.pop()])
        except OverflowError:   # an int wider than 64 bits
            pass
    return [_as_arrays(value) for value in doc]


_PACKED_NAMES = {np.dtype("<f8"): "f8", np.dtype("<i8"): "i8",
                 np.dtype("?"): "b1"}


def _copying_encode(doc):
    """The file ``write_checkpoint`` of ``doc`` must write, built the way
    the copying encoder the streaming writer replaced built it: every
    packed column ``tobytes()``-ed, joined into one body, the CRC taken
    over that body."""
    table, chunks = [], []

    def column(path, name, chunk, count):
        table.append([path, name, count])
        chunks.append(chunk)

    def pack(value, path):
        if isinstance(value, dict):
            return {key: pack(item, path + [key]) if type(key) is str
                    else item for key, item in value.items()}
        if isinstance(value, np.ndarray):
            dtype = _packed_as(value)
            if dtype is None:
                return pack(value.tolist(), path)
            column(path, _PACKED_NAMES[dtype], value.tobytes(), len(value))
            return None
        if not isinstance(value, list):
            return value
        if (len(value) >= _MIN_PACKED and set(map(type, value)) == {str}
                and not any("\0" in item for item in value)):
            try:
                chunk = "\0".join(value).encode("utf-8")
            except UnicodeEncodeError:
                return value
            column(path, "str", chunk, len(chunk))
            return None
        dtype = _packed_as(value)
        if dtype is not None:
            column(path, _PACKED_NAMES[dtype],
                   np.array(value, dtype).tobytes(), len(value))
            return None
        return [pack(item, path + [index])
                for index, item in enumerate(value)]

    head = {"checkpoint_version": CHECKPOINT_VERSION, "columns": table,
            "state": pack(doc, [])}
    body = b"".join([json.dumps(head, separators=(",", ":")).encode("utf-8"),
                     b"\n", *chunks])
    return body + b"\ncrc32:%08x\n" % zlib.crc32(body)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "doc.ckpt"


class TestCodecRoundTrip:
    """``read_checkpoint(write_checkpoint(doc))`` is ``doc`` with every
    packed column a read-only array: an array comes back with its dtype
    and bytes, a list as the array of its elements, whatever cannot be
    packed stays JSON — and the fingerprint cannot tell the two forms
    apart, nor the file a list from the equal array."""

    @settings(max_examples=150, deadline=None)
    @given(doc=_DOCS)
    def test_the_document_comes_back_identical(self, scratch_file, doc):
        write_checkpoint(scratch_file, doc)
        read = read_checkpoint(scratch_file)
        assert read.pop("checkpoint_version") == CHECKPOINT_VERSION
        _identical(read, doc)
        assert state_fingerprint(read) == state_fingerprint(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=_DOCS)
    def test_the_file_is_the_copying_encoders_bytes(self, scratch_file,
                                                     doc):
        write_checkpoint(scratch_file, doc)
        assert scratch_file.read_bytes() == _copying_encode(doc)

    @pytest.mark.parametrize("dtype", ["<f8", "<i8", "?"])
    def test_a_view_is_written_as_the_array_it_shows(self, tmp_path, dtype):
        base = (np.arange(4 * _MIN_PACKED) % 3).astype(dtype)
        doc = {"strided": base[::2], "reversed": base[::-1],
               "read_only": _read_only(base),
               "from_bytes": np.frombuffer(base.tobytes(), dtype)}
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, doc)
        raw = path.read_bytes()
        assert raw == _copying_encode(doc)
        head = json.loads(raw[:raw.index(b"\n")])
        assert [keys for keys, _, _ in head["columns"]] == [[key]
                                                            for key in doc]
        read = read_checkpoint(path)
        del read["checkpoint_version"]
        _identical(read, doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=_DOCS)
    def test_lists_and_equal_arrays_write_the_same_file(self, scratch_file,
                                                        doc):
        files = []
        listed = _as_lists(doc)
        for form in (doc, listed, _as_arrays(listed)):
            write_checkpoint(scratch_file, form)
            files.append(scratch_file.read_bytes())
        assert files[0] == files[1] == files[2]

    @pytest.mark.parametrize("size", [0, _MIN_PACKED - 1, _MIN_PACKED,
                                      _MIN_PACKED + 1])
    def test_an_array_comes_back_bit_for_bit(self, tmp_path, size):
        doc = {"f": np.resize(np.array(
                   [-0.0, _NAN, math.inf, -math.inf, 5e-324, -2.2e-308]),
                   size),
               "i": np.resize(np.array([-(1 << 63), (1 << 63) - 1, 0],
                                       dtype=np.int64), size),
               "b": np.resize(np.array([True, False]), size)}
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, doc)
        read = read_checkpoint(path)
        del read["checkpoint_version"]
        _identical(read, doc)
        assert all((type(read[key]) is np.ndarray) == (size >= _MIN_PACKED)
                   for key in doc)
        assert state_fingerprint(read) == state_fingerprint(doc)

    def test_the_head_spells_no_packed_number(self, tmp_path):
        doc = {"columns": [[["state"], "f8", 3]], "state": {"columns": None},
               "f": [-0.0, _NAN, math.inf] * _MIN_PACKED,
               "i": [-(1 << 63), (1 << 63) - 1] * _MIN_PACKED,
               "b": [True] * _MIN_PACKED,
               "wide": [1 << 64] + [1] * _MIN_PACKED,
               "mixed": [1.0, 2] * _MIN_PACKED,
               "short": [0.25] * (_MIN_PACKED - 1)}
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, doc)
        raw = path.read_bytes()
        head = json.loads(raw[:raw.index(b"\n")])
        assert [keys for keys, _, _ in head["columns"]] == [["f"], ["i"],
                                                            ["b"]]
        assert head["state"]["f"] is None and head["state"]["wide"][0] \
            == 1 << 64
        read = read_checkpoint(path)
        del read["checkpoint_version"]
        _identical(read, doc)


class _RecordingHook(PlanFaultHook):
    """A fault hook that keeps every body it is handed."""

    def __init__(self, plan):
        super().__init__(plan)
        self.handed = []

    def checkpoint_body(self, body):
        self.handed.append(body)
        return super().checkpoint_body(body)


class TestFaultSeam:
    """The writer streams its parts to the file, and joins them only for
    an enabled fault hook: an armed hook is handed exactly the bytes a
    plain write puts on disk, and what it makes of them — torn or
    corrupted — still fails the reader."""

    STATE = dict(TestChecksumTrailer.STATE,
                 strided=np.arange(4.0 * _MIN_PACKED)[::2])

    @pytest.mark.parametrize("spec", [FaultSpec(torn_checkpoint_rate=1.0),
                                      FaultSpec(corrupt_checkpoint_rate=1.0)],
                             ids=["torn", "corrupted"])
    @pytest.mark.parametrize("seed", range(4))
    def test_is_handed_the_plain_files_bytes(self, tmp_path, spec, seed):
        plain = tmp_path / "plain.ckpt"
        write_checkpoint(plain, self.STATE, fault_hook=NOOP_HOOK)
        hook = _RecordingHook(FaultPlan(seed, spec))
        faulted = tmp_path / "faulted.ckpt"
        write_checkpoint(faulted, self.STATE, fault_hook=hook)
        assert hook.handed == [plain.read_bytes()]
        assert faulted.read_bytes() != hook.handed[0]
        with pytest.raises(CheckpointError):
            read_checkpoint(faulted)

    def test_a_disarmed_hook_writes_the_plain_file(self, tmp_path):
        plain, hooked = tmp_path / "plain.ckpt", tmp_path / "hooked.ckpt"
        write_checkpoint(plain, self.STATE)
        hook = _RecordingHook(FaultPlan(0, FaultSpec(
            torn_checkpoint_rate=1.0)))
        hook.checkpoint_armed = False
        write_checkpoint(hooked, self.STATE, fault_hook=hook)
        assert hooked.read_bytes() == plain.read_bytes() == hook.handed[0]


class TestStringColumns:
    """A list of at least ``_MIN_PACKED`` strings is one ``str`` column:
    UTF-8, NUL-joined, its table count the byte length. It reads back as
    the list of its strings, so neither the document nor its fingerprint
    can tell; a string holding a NUL or a lone surrogate keeps its list
    JSON."""

    CASES = [
        ("exactly-min-packed", [f"task-{i}" for i in range(_MIN_PACKED)],
         True),
        ("one-short", [f"task-{i}" for i in range(_MIN_PACKED - 1)], False),
        ("no-strings", [], False),
        ("empty-strings", [""] * _MIN_PACKED, True),
        ("non-ascii", ["é", "日本語", "\U0001f600", "ß"] * _MIN_PACKED, True),
        ("nul-bearing", ["a\0b"] + ["c"] * _MIN_PACKED, False),
        ("lone-surrogate", ["\ud800"] + ["c"] * _MIN_PACKED, False),
    ]

    @pytest.mark.parametrize("strings, packed", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_comes_back_as_its_strings(self, tmp_path, strings, packed):
        doc = {"names": strings, "after": [0.5] * _MIN_PACKED}
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, doc)
        raw = path.read_bytes()
        head = json.loads(raw[:raw.index(b"\n")])
        want = [[["names"], "str", len("\0".join(strings).encode())]] \
            if packed else []
        assert head["columns"] == want + [[["after"], "f8", _MIN_PACKED]]
        assert (head["state"]["names"] is None) == packed
        read = read_checkpoint(path)
        del read["checkpoint_version"]
        _identical(read, doc)
        assert state_fingerprint(read) == state_fingerprint(doc)


class TestOnlineStatisticsState:
    def test_roundtrip_preserves_estimates(self):
        stats = OnlineStatistics(restart_after=50, min_fresh=5)
        rng = np.random.default_rng(3)
        for x in rng.normal(0.5, 2.0, 130):
            stats.update(float(x))
        clone = OnlineStatistics(restart_after=50, min_fresh=5)
        clone.load_state_dict(stats.state_dict())
        assert clone.mean == stats.mean
        assert clone.variance == stats.variance
        assert clone.effective_count == stats.effective_count
        assert clone.restarts == stats.restarts
        # Continued updates must evolve identically.
        for x in rng.normal(0.5, 2.0, 80):
            stats.update(float(x))
            clone.update(float(x))
            assert clone.mean == stats.mean
            assert clone.variance == stats.variance

    def test_state_is_json_safe(self):
        stats = OnlineStatistics()
        stats.update(1.0)
        stats.update(2.0)
        assert json.loads(json.dumps(stats.state_dict())) \
            == stats.state_dict()


class TestSamplerState:
    def test_restored_sampler_continues_identically(self):
        """The restored sampler's decision stream must be bit-identical to
        an uninterrupted one — the checkpoint/restore acceptance bar."""
        spec = task(threshold=10.0, err=0.05)
        config = AdaptationConfig(patience=3, min_samples=4,
                                  stats_restart=60)
        rng = np.random.default_rng(11)
        values = rng.normal(7.0, 2.0, 400)

        reference = ViolationLikelihoodSampler(spec, config)
        split = ViolationLikelihoodSampler(spec, config)
        step_ref = 0
        step_split = 0
        # Drive both to the checkpoint, following each one's own schedule.
        for _ in range(120):
            decision = reference.observe(float(values[step_ref]), step_ref)
            step_ref += decision.next_interval
        for _ in range(120):
            decision = split.observe(float(values[step_split]), step_split)
            step_split += decision.next_interval
        assert step_ref == step_split

        restored = ViolationLikelihoodSampler(spec, config)
        restored.load_state_dict(split.state_dict())
        assert restored.interval == split.interval
        assert restored.observations == split.observations

        while step_ref < values.size:
            ref = reference.observe(float(values[step_ref]), step_ref)
            res = restored.observe(float(values[step_ref]), step_ref)
            assert ref == res
            step_ref += ref.next_interval

    def test_coordination_stats_survive_restore(self):
        """A period cut by a snapshot -> restore drains the floats of one
        left whole, whichever representation wrote the state and
        whichever read it: a scalar sampler's
        ``drain_coordination_stats`` and an engine row's
        ``drain_coordination``, float for float."""
        spec = task(err=0.05)
        values = np.random.default_rng(11).normal(80.0, 15.0, 90).tolist()
        sampler = ViolationLikelihoodSampler(spec)
        engine = SoaSamplerEngine()
        rows = [engine.add_task(spec)]

        def feed(lo, hi, samplers, engines):
            for step in range(lo, hi):
                for one in samplers:
                    one.observe(values[step], step)
                for one in engines:
                    one.observe_one(0, values[step], step)

        feed(0, 30, [sampler], [engine])
        assert engine.drain_coordination(rows) == [
            sampler.drain_coordination_stats()]
        feed(30, 60, [sampler], [engine])           # mid-period
        wire = json.loads(json.dumps(sampler.state_dict()))
        samplers, engines = [sampler], [engine]
        for columns in (sampler_state_columns([wire]),
                        engine.rows_state(np.asarray(rows))):
            restored = ViolationLikelihoodSampler(spec)
            restored.load_state_dict(sampler_state_dict(
                {key: column.tolist() for key, column in columns.items()},
                0))
            onto = SoaSamplerEngine()
            onto.load_rows_state([onto.add_task(spec)], columns)
            samplers.append(restored)
            engines.append(onto)
        feed(60, 90, samplers, engines)
        want = samplers[0].drain_coordination_stats()
        assert want is not None and want.observations == 60
        for restored in samplers[1:]:
            assert restored.drain_coordination_stats() == want
        for restored in engines:
            assert restored.drain_coordination(rows) == [want]


class TestServiceSnapshot:
    def test_snapshot_is_json_serialisable(self):
        service = MonitoringService()
        service.add_task("a", task(), window=3,
                         window_kind=AggregateKind.MAX)
        for step in range(20):
            service.offer("a", float(step * 7 % 13), step)
        snapshot = service.snapshot()
        wire = json.loads(json.dumps(snapshot, default=np.ndarray.tolist))
        assert state_fingerprint(wire) == state_fingerprint(snapshot)
        assert (state_fingerprint(MonitoringService.restore(wire).snapshot())
                == state_fingerprint(snapshot))

    def test_restore_resumes_identically(self):
        rng = np.random.default_rng(5)
        values = rng.normal(80.0, 15.0, 600)

        def build():
            service = MonitoringService(AdaptationConfig(patience=3,
                                                         min_samples=4))
            service.add_task("inst", task(threshold=100.0, err=0.05))
            service.add_task("win", task(threshold=95.0, err=0.02),
                             window=4, window_kind=AggregateKind.MEAN)
            service.add_task("gate", task(threshold=90.0, err=0.0))
            service.add_trigger("inst", trigger="gate",
                                elevation_level=70.0, suspend_interval=6)
            return service

        def feed(service, lo, hi):
            for step in range(lo, hi):
                v = float(values[step])
                for name in ("inst", "win", "gate"):
                    service.offer(name, v, step)

        uninterrupted = build()
        feed(uninterrupted, 0, 600)

        interrupted = build()
        feed(interrupted, 0, 300)
        snapshot = json.loads(json.dumps(interrupted.snapshot(),
                                         default=np.ndarray.tolist))
        restored = MonitoringService.restore(snapshot)
        feed(restored, 300, 600)

        for name in ("inst", "win", "gate"):
            assert restored.samples_taken(name) \
                == uninterrupted.samples_taken(name)
            assert restored.alerts(name) == uninterrupted.alerts(name)
            assert restored.interval(name) == uninterrupted.interval(name)
            assert restored.next_due(name) == uninterrupted.next_due(name)

    def test_restore_rewires_alert_callbacks(self):
        service = MonitoringService()
        service.add_task("a", task(threshold=10.0, err=0.0))
        fired = []
        restored = MonitoringService.restore(
            service.snapshot(),
            on_alert=lambda name, alert: fired.append((name, alert)))
        restored.offer("a", 50.0, 0)
        assert fired and fired[0][0] == "a"
        assert fired[0][1].value == 50.0

    def test_restore_rejects_wrong_version(self):
        service = MonitoringService()
        service.add_task("a", task())
        snapshot = service.snapshot()
        snapshot["version"] = 999
        with pytest.raises(ConfigurationError, match=_versions(999)):
            MonitoringService.restore(snapshot)

    def test_restore_rejects_dangling_trigger(self):
        """It does not: a guard's trigger may live anywhere, on another
        shard or another worker, so one whose trigger is on no task of
        the document restores equal."""
        service = MonitoringService()
        service.add_task("a", task())
        service.add_remote_trigger("a", "gone", 1.0)
        guard = service.snapshot()["sparse"]["guard"]
        assert guard["task"].tolist() == [0]
        assert guard["remote_trigger"] == ["gone"]
        assert state_fingerprint(MonitoringService.restore(
            service.snapshot()).snapshot()) == state_fingerprint(
            service.snapshot())

    def test_a_symbol_beyond_64_bits_stays_exact(self, tmp_path):
        """An entropy ring holding the symbol of an extreme value (past
        2**63 bins) keeps it exactly: that one column stays the list of
        its ints, through a checkpoint file and back onto either
        representation."""
        service = MonitoringService(soa=True)
        service.add_entropy_task("e", threshold=1.0, bin_width=1.0)
        for step, value in enumerate([1.0, 1e30, -1e30, 2.0]):
            service.offer("e", value, step)
        snapshot = service.snapshot()
        symbols = snapshot["sparse"]["entropy"]["symbols"]
        assert isinstance(symbols, list) and max(symbols) > 1 << 63
        write_checkpoint(tmp_path / "wide.ckpt", {"snapshot": snapshot})
        filed = read_checkpoint(tmp_path / "wide.ckpt")["snapshot"]
        for soa in (False, True):
            restored = MonitoringService.restore(filed, soa=soa)
            assert state_fingerprint(restored.snapshot()) == (
                state_fingerprint(snapshot))
            assert restored.task_estimate("e") == service.task_estimate("e")

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_a_buffer_longer_than_its_window_that_old_files_hold_is_refused(
            self, soa):
        """A service once let a due offer the sampler then refused enter
        a windowed task's buffer (a repeated step, due again after each
        arm edge of its guard), so a version-4 file could hold a buffer
        longer than its window — five entries in a window of 3 at step
        10, built here by hand. A buffer now holds one offer per step
        the sampler took, and no version-4 file is read, so even
        stamped with the current version such a document is refused by
        name, onto either representation."""
        service = MonitoringService(soa=soa)
        service.add_task("tgt", task(threshold=1e9, err=0.05), window=3)
        service.offer("tgt", 1.0, 0)
        service.offer("tgt", 2.0, 10)
        document = json.loads(json.dumps(service.snapshot(),
                                         default=np.ndarray.tolist))
        buffer = document["sparse"]["window_values"]
        assert buffer == {"task": [0], "length": [1], "step": [10],
                          "value": [2.0]}
        buffer.update(length=[5], step=[10] * 5,
                      value=[2.0, 3.0, 4.0, 5.0, 6.0])
        for onto in (False, True):
            with pytest.raises(ConfigurationError, match=(
                    r"sparse\.window_values\.length holds 5, not in "
                    r"\[1, task\.window\]")):
                MonitoringService.restore(document, soa=onto)

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_a_nan_bound_restores(self, soa):
        """Finite offers at the edge of the float range would overflow
        the delta statistics to NaN, the bound and the coordination
        product's mantissa with them. No bound goes NaN any more: a
        finite delta whose update overflows the variance restarts the
        statistics without it, so every offer is taken, what a service
        writes after them stays finite, and it restores, onto either
        representation, as it was."""
        service = MonitoringService(AdaptationConfig(min_samples=2,
                                                     patience=1), soa=soa)
        service.add_task("x", task(threshold=0.0, err=0.05))
        for step, value in enumerate([0.0, 1.7e308] * 3):
            service.offer("x", value, step)
        document = service.snapshot()
        assert service.samples_taken("x") == 6
        assert document["sampler"]["restarts"][0] == 2
        for key in ("mean", "var", "coord_err_mant"):
            assert np.isfinite(document["sampler"][key]).all(), key
        for onto in (False, True):
            assert state_fingerprint(MonitoringService.restore(
                document, soa=onto).snapshot()) == (
                state_fingerprint(document))

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_a_refused_step_leaves_the_window_as_it_was(self, soa):
        """A due offer at a step its window already holds — a repeated
        step, due again because each arm edge of the guard resets the
        target to full rate — leaves the window as it was, and the
        sampler refuses it. An offer at a new step enters the window
        whether or not the sampler then takes the sample: here a sum
        whose delta overflows the variance, which is taken and restarts
        the statistics without the delta, then one that overflows
        itself, which is refused."""
        service = MonitoringService(soa=soa)
        service.add_task("src", task(threshold=1e9, err=0.05))
        service.add_task("tgt", task(threshold=1e9, err=0.05), window=3,
                         window_kind=AggregateKind.SUM)
        service.add_trigger("tgt", "src", elevation_level=50.0)
        service.offer("src", 10.0, 0)
        service.offer("tgt", 0.1, 0)

        def window():
            group = service.snapshot()["sparse"]["window_values"]
            return list(zip(list(group["step"]), list(group["value"])))
        for attempt in range(5):
            service.offer("src", 60.0, 10)
            with pytest.raises(ValueError, match="time_index must increase"
                               ) if attempt else contextlib.nullcontext():
                service.offer("tgt", 0.2 + attempt, 10)
            assert window() == [(10, 0.2)]
            service.offer("src", 10.0, 10)
        assert service.snapshot()["sampler"]["last_value"][1] == 0.2
        service.offer("src", 60.0, 11)
        service.offer("tgt", 1.5e308, 11)
        assert service.snapshot()["sampler"]["restarts"][1] == 1
        with pytest.raises(ValueError, match="non-finite"):
            service.offer("tgt", 1.5e308, 12)
        assert window() == [(10, 0.2), (11, 1.5e308), (12, 1.5e308)]
        assert service.samples_taken("tgt") == 3

    def test_window_buffer_survives_restore(self):
        for soa in (False, True):
            service = MonitoringService(soa=soa)
            service.add_task("w", task(threshold=1e9, err=0.0), window=5,
                             window_kind=AggregateKind.MEAN)
            for step, v in enumerate([1.0, 2.0, 3.0]):
                service.offer("w", v, step)
            for onto in (False, True):
                restored = MonitoringService.restore(service.snapshot(),
                                                     soa=onto)
                # The next aggregate still sees the pre-snapshot window.
                restored.offer("w", 6.0, 3)
                assert restored.snapshot()["sampler"]["last_value"][0] == 3.0


def _same(document, copy):
    """Whether ``document`` is ``copy`` value for value: the same
    containers, keys and elements, each array of the same dtype."""
    if isinstance(document, np.ndarray):
        return (isinstance(copy, np.ndarray) and document.dtype == copy.dtype
                and np.array_equal(document, copy))
    if type(document) is not type(copy):
        return False
    if type(document) is dict:
        return document.keys() == copy.keys() and all(
            _same(document[key], copy[key]) for key in document)
    if type(document) is list:
        return len(document) == len(copy) and all(map(_same, document,
                                                      copy))
    return document == copy


class TestSharedDocument:
    """A shard with no op since its last snapshot hands back that very
    document (DESIGN.md S31), so whoever reads one shares it with every
    later reader and writes nothing into it."""

    def test_readers_leave_the_document_as_it_was(self, tmp_path):
        pin = json.loads((pathlib.Path(__file__).parents[1] / "fixtures"
                          / "engine_snapshot_v6.json").read_text())
        service = MonitoringService.restore(pin["snapshot"], soa=True)
        document = service.snapshot()
        copy = deepcopy(document)
        state_fingerprint(document)
        write_checkpoint(tmp_path / "c.ckpt",
                         {"shard_count": 1, "shards": [document]})
        for soa in (False, True):
            MonitoringService.restore(document, soa=soa)
        encode_frame_parts({"ok": True, "snapshot": document})

        async def hand_over():
            transport = InProcTransport("w0", WorkerHost("w0"))
            await transport.start()
            reply = await transport.request({
                "op": "w_restore_shard", "shard": 0, "snapshot": document,
                "fingerprint": True})
            assert reply["fingerprint"] == pin["fingerprint"]
            taken = await transport.request({"op": "w_snapshot_shard",
                                             "shard": 0})
            again = await transport.request({"op": "w_snapshot_shard",
                                             "shard": 0})
            assert taken["snapshot"] is again["snapshot"]
            await transport.close()
        asyncio.run(hand_over())
        assert _same(document, copy)
        assert service.snapshot() is document


def _ragged(s):
    s["sampler"]["mean"].append(0.0)


def _missing(s):
    del s["task"]["window"]


def _unknown(s):
    s["spec"]["colour"] = ["red"] * len(s["names"])


def _string_in_a_float_column(s):
    s["sampler"]["var"][1] = "0.5"


def _null_under_a_raised_flag(s):
    assert s["sampler"]["has_last"][0]
    s["sampler"]["last_value"][0] = None


def _counts_that_do_not_add_up(s):
    s["task"]["alerts"][0] += 1


def _sparse_key_outside_names(s):
    s["sparse"]["watch"]["task"][0] = len(s["names"])


def _half_a_guard(s):
    del s["sparse"]["guard"]["armed"][0]


def _unknown_map(s):
    s["sparse"]["colour"] = {}


def _window_lengths_that_do_not_add_up(s):
    s["sparse"]["window_values"]["length"][0] += 1


def _bucket_lengths_that_do_not_add_up(s):
    s["sparse"]["quantile"]["current"]["pos_length"][1] -= 1


def _ring_lengths_that_do_not_add_up(s):
    s["sparse"]["entropy"]["symbols"].pop()


def _negative_ring_length(s):
    s["sparse"]["entropy"]["length"][0] = -1


def _task_position_below_zero(s):
    s["sparse"]["guard"]["task"][0] = -1


def _task_position_repeated(s):
    quantile = s["sparse"]["quantile"]["task"]
    quantile[1] = quantile[0]


def _task_positions_unsorted(s):
    s["sparse"]["window_values"]["task"].reverse()


def _a_buffer_on_a_window_1_task(s):
    # One entry, so the buffer is within its window: what only the
    # window-1 rule refuses.
    buffer = s["sparse"]["window_values"]
    s["task"]["window"][buffer["task"][0]] = 1
    buffer["length"][0] = 1
    del buffer["step"][1:3], buffer["value"][1:3]


def _a_task_of_two_types(s):
    s["sparse"]["entropy"]["task"][0] = s["sparse"]["quantile"]["task"][0]


def _sealed_flag_without_its_sketch(s):
    assert s["sparse"]["quantile"]["has_sealed"] == [True, False]
    s["sparse"]["quantile"]["has_sealed"][1] = True


def _sealed_sketch_without_its_flag(s):
    s["sparse"]["quantile"]["has_sealed"][0] = False


def _negative_bucket_count(s):
    s["sparse"]["quantile"]["sealed"]["pos_count"][0] = -2


def _bucket_key_as_a_float(s):
    s["sparse"]["quantile"]["current"]["pos_key"][0] += 0.5


def _a_buffer_longer_than_its_window(s):
    buffer = s["sparse"]["window_values"]
    assert buffer["length"] == [3, 3] and buffer["step"][-1] == 5
    buffer["length"][1] = 4
    buffer["step"].append(6)
    buffer["value"].append(57.0)


def _an_empty_buffer(s):
    # A service writes no member for an empty buffer, so one would not
    # be written back as it was read.
    buffer = s["sparse"]["window_values"]
    buffer["length"][0] = 0
    del buffer["step"][:3], buffer["value"][:3]


def _a_mantissa_below_a_half(s):
    s["sampler"]["coord_err_mant"][2] = 0.25


def _an_empty_product_above_one(s):
    s["sampler"]["coord_err_mant"][0] = 2.0


def _a_nan_mantissa(s):
    # No offer takes the statistics, so the bound, to NaN any more.
    s["sampler"]["coord_err_mant"][1] = math.nan


def _a_running_window_sum(s):
    # What a version-5 document held beside its windows.
    s["task"]["window_sum"] = [0.0] * len(s["names"])


def _window_steps_out_of_order(s):
    buffer = s["sparse"]["window_values"]
    buffer["step"][3:6] = buffer["step"][3:6][::-1]


def _a_window_entry_that_fell_out(s):
    # Step 2 is not in (5 - 3, 5], what a window of 3 holds at step 5.
    buffer = s["sparse"]["window_values"]
    buffer["step"][3] -= 1


def _a_window_past_the_ring_bound(s):
    s["task"]["window"][s["sparse"]["window_values"]["task"][0]] = 1 << 20


def _an_entropy_ring_longer_than_its_window(s):
    entropy = s["sparse"]["entropy"]
    assert entropy["window"] == [8] and entropy["length"] == [6]
    entropy["length"][0] = 12
    entropy["symbols"].extend(entropy["symbols"])


def _an_epoch_past_its_window(s):
    quantile = s["sparse"]["quantile"]
    assert quantile["window"][0] == 4
    quantile["in_epoch"][0] = 400


def _version_1(s):
    s["version"] = 1


def _version_2(s):
    s["version"] = 2


def _version_3(s):
    s["version"] = 3


def _version_4(s):
    s["version"] = 4


def _version_5(s):
    s["version"] = 5


def _version_7(s):
    s["version"] = 7


def _version_999(s):
    s["version"] = 999


def _no_version(s):
    del s["version"]


def _version_as_string(s):
    s["version"] = "6"


def _version_as_float(s):
    s["version"] = 6.0


def _bool_in_an_int_column(s):
    s["task"]["next_due"][0] = True


def _int_beyond_64_bits(s):
    s["sampler"]["last_time"][0] = 1 << 70


def _a_task_twice(s):
    s["names"][1] = s["names"][0]


def _config_index_out_of_range(s):
    s["task"]["adaptation"][0] = 7


def _unknown_direction(s):
    s["spec"]["direction"][0] = "sideways"


def _unknown_adaptation_key(s):
    s["adaptations"][0]["colour"] = "blue"


def _unknown_service_adaptation_key(s):
    s["adaptation"]["colour"] = "blue"


def _mistyped_adaptation(s):
    s["adaptations"][0]["patience"] = "twenty"


def _unknown_top_level_key(s):
    s["tasks"] = []


def _interval_of_zero(s):
    s["sampler"]["interval"][0] = 0


def _negative_interval(s):
    s["sampler"]["interval"][1] = -3


def _interval_beyond_max_interval(s):
    assert s["spec"]["max_interval"][2] == 10
    s["sampler"]["interval"][2] = 99


def _window_of_zero(s):
    s["task"]["window"][0] = 0


def _negative_window(s):
    s["task"]["window"][1] = -2


def _suspend_interval_of_zero(s):
    s["task"]["suspend_interval"][2] = 0


def _negative_sample_count(s):
    s["sampler"]["n"][0] = -1


def _negative_samples_taken(s):
    s["task"]["samples_taken"][1] = -1


def _negative_suspension_count(s):
    s["sparse"]["guard"]["suspensions"][0] = -1


def _error_allowance_above_one(s):
    s["sampler"]["error_allowance"][1] = 1.5


def _versions(got):
    """The culprit of a document stamped ``got``: it and the one version
    ``restore`` reads, named."""
    return rf"version {got};.*version {SNAPSHOT_VERSION}\b"


def _f8_where_i8_is_expected(s):
    s["task"]["next_due"] = s["task"]["next_due"].astype(np.float64)


def _bool_array_in_an_int_column(s):
    s["sampler"]["interval"] = s["sampler"]["interval"] > 0


def _int32_array(s):
    s["task"]["samples_taken"] = s["task"]["samples_taken"].astype(np.int32)


def _2d_array(s):
    s["sampler"]["mean"] = s["sampler"]["mean"].reshape(-1, 1)


def _object_array(s):
    s["alerts"]["value"] = s["alerts"]["value"].astype(object)


def _array_of_the_wrong_length(s):
    s["sampler"]["var"] = s["sampler"]["var"][:-1]


def _interval_array_of_zero(s):
    s["sampler"]["interval"] = s["sampler"]["interval"] * 0


def _interval_array_beyond_max_interval(s):
    s["sampler"]["interval"] = s["sampler"]["interval"] + 10


def _window_array_of_zero(s):
    s["task"]["window"] = s["task"]["window"] - 1


def _suspend_interval_array_of_zero(s):
    s["task"]["suspend_interval"] = s["task"]["suspend_interval"] * 0


def _negative_count_array(s):
    s["sampler"]["total_count"] = -1 - s["sampler"]["total_count"]


def _error_allowance_array_above_one(s):
    s["sampler"]["error_allowance"] = s["sampler"]["error_allowance"] + 1.5


def _f8_bucket_counts(s):
    current = s["sparse"]["quantile"]["current"]
    current["pos_count"] = current["pos_count"].astype(np.float64)


def _negative_bucket_count_array(s):
    sealed = s["sparse"]["quantile"]["sealed"]
    sealed["pos_count"] = -sealed["pos_count"]


def _repeated_task_array(s):
    entropy = s["sparse"]["entropy"]
    entropy["task"] = np.repeat(entropy["task"], 2)


class TestMalformedSnapshot:
    """A document that is not a version-5 snapshot — any other stamp, or
    a version-5 stamp on a body that is not one — is refused by name,
    before a service exists, onto rows and onto the scalar oracle alike.
    Nothing upgrades an older stamp. ``CASES`` damage the wire form (the
    document after a JSON round trip, every column a list),
    ``ARRAY_CASES`` the columns a service writes as arrays."""

    CASES = [
        (_ragged, "sampler.mean"),
        (_missing, r"'task'.*\['window'\]"),
        (_unknown, r"'spec'.*\['colour'\]"),
        (_string_in_a_float_column, "sampler.var"),
        (_null_under_a_raised_flag, "sampler.last_value"),
        (_counts_that_do_not_add_up, "alerts.step"),
        (_sparse_key_outside_names,
         r"sparse\.watch\.task holds 8, not a position in names"),
        (_half_a_guard, r"sparse\.guard\.armed is not .* of 1 elements"),
        (_unknown_map, r"'sparse'.*\['colour'\]"),
        (_window_lengths_that_do_not_add_up,
         r"sparse\.window_values\.step holds \d+ elements, but "
         r"sparse\.window_values\.length sums to \d+"),
        (_bucket_lengths_that_do_not_add_up,
         r"sparse\.quantile\.current\.pos_key holds \d+ elements, but "
         r"sparse\.quantile\.current\.pos_length sums to"),
        (_ring_lengths_that_do_not_add_up,
         r"sparse\.entropy\.symbols holds 5 elements, but "
         r"sparse\.entropy\.length sums to 6"),
        (_negative_ring_length, r"sparse\.entropy\.length holds -1, not a "
                                r"length"),
        (_task_position_below_zero,
         r"sparse\.guard\.task holds -1, not a position in names"),
        (_task_position_repeated, r"sparse\.quantile\.task is not ascending"),
        (_task_positions_unsorted,
         r"sparse\.window_values\.task is not ascending"),
        (_a_task_of_two_types,
         r"task 'q-sealed' is in both sparse\.quantile and sparse\.entropy"),
        (_a_buffer_on_a_window_1_task,
         r"sparse\.window_values\.task holds 6 \(task 'w0'\), not a "
         r"windowed task's position"),
        (_sealed_flag_without_its_sketch,
         r"sparse\.quantile\.sealed\.count is not .* of 2 elements"),
        (_sealed_sketch_without_its_flag,
         r"sparse\.quantile\.sealed\.count is not .* of 0 elements"),
        (_negative_bucket_count,
         r"sparse\.quantile\.sealed\.pos_count holds -2, not a count"),
        (_bucket_key_as_a_float,
         r"sparse\.quantile\.current\.pos_key holds an element that is "
         r"not int"),
        (_a_buffer_longer_than_its_window,
         r"sparse\.window_values\.length holds 4, not in \[1, task\.window\]"),
        (_an_empty_buffer,
         r"sparse\.window_values\.length holds 0, not in \[1, task\.window\]"),
        (_a_mantissa_below_a_half,
         r"sampler\.coord_err_mant holds 0\.25 \(task 'held'\), not in "
         r"\[0\.5, 1\]"),
        (_an_empty_product_above_one,
         r"sampler\.coord_err_mant holds 2\.0 \(task 'hot'\)"),
        (_a_nan_mantissa,
         r"sampler\.coord_err_mant holds nan \(task 'edge'\)"),
        (_a_running_window_sum, r"unknown keys \['window_sum'\]"),
        (_window_steps_out_of_order,
         r"sparse\.window_values\.step holds 4, not ascending"),
        (_a_window_entry_that_fell_out,
         r"sparse\.window_values\.step holds 2, not ascending, after its "
         r"window's newest step less the window"),
        (_a_window_past_the_ring_bound,
         r"task\.window holds 1048576 \(task '.*'\), not within 1\.\.65536"),
        (_an_entropy_ring_longer_than_its_window,
         r"sparse\.entropy\.length holds 12, not in "
         r"\[0, sparse\.entropy\.window\]"),
        (_an_epoch_past_its_window,
         r"sparse\.quantile\.in_epoch holds 400, not in "
         r"\[0, sparse\.quantile\.window\)"),
        (_version_1, _versions(1)),
        (_version_2, _versions(2)),
        (_version_3, _versions(3)),
        (_version_4, _versions(4)),
        (_version_5, _versions(5)),
        (_version_7, _versions(7)),
        (_version_999, _versions(999)),
        (_no_version, _versions(None)),
        (_version_as_string, _versions("'6'")),
        (_version_as_float, _versions(r"6\.0")),
        (_bool_in_an_int_column, "task.next_due"),
        (_int_beyond_64_bits, "sampler.last_time"),
        (_a_task_twice, "names"),
        (_config_index_out_of_range, "task.adaptation"),
        (_unknown_direction, "spec.direction.*sideways"),
        (_unknown_adaptation_key, "adaptation.*'colour'"),
        (_unknown_service_adaptation_key, "adaptation.*'colour'"),
        (_mistyped_adaptation, "adaptation.*'str' and 'int'"),
        (_unknown_top_level_key, r"\['tasks'\]"),
        (_interval_of_zero, r"sampler\.interval holds 0 \(task 'hot'\)"),
        (_negative_interval, r"sampler\.interval holds -3 \(task 'edge'\)"),
        (_interval_beyond_max_interval, r"sampler\.interval holds 99"),
        (_window_of_zero, r"task\.window holds 0"),
        (_negative_window, r"task\.window holds -2"),
        (_suspend_interval_of_zero, r"task\.suspend_interval holds 0"),
        (_negative_sample_count, r"sampler\.n holds -1"),
        (_negative_samples_taken, r"task\.samples_taken holds -1"),
        (_negative_suspension_count,
         r"sparse\.guard\.suspensions holds -1, not a count"),
        (_error_allowance_above_one, r"sampler\.error_allowance holds 1\.5"),
    ]
    ARRAY_CASES = [
        (_f8_where_i8_is_expected, "task.next_due.*float64"),
        (_bool_array_in_an_int_column, "sampler.interval.*bool"),
        (_int32_array, "task.samples_taken.*int32"),
        (_2d_array, "sampler.mean"),
        (_object_array, "alerts.value.*object"),
        (_array_of_the_wrong_length, "sampler.var"),
        (_interval_array_of_zero, r"sampler\.interval holds 0"),
        (_interval_array_beyond_max_interval, r"sampler\.interval holds 1\d"),
        (_window_array_of_zero, r"task\.window holds 0"),
        (_suspend_interval_array_of_zero, r"task\.suspend_interval holds 0"),
        (_negative_count_array, r"sampler\.total_count holds -\d"),
        (_error_allowance_array_above_one,
         r"sampler\.error_allowance holds 1\.5"),
        (_f8_bucket_counts, r"sparse\.quantile\.current\.pos_count.*float64"),
        (_negative_bucket_count_array,
         r"sparse\.quantile\.sealed\.pos_count holds -\d"),
        (_repeated_task_array, r"sparse\.entropy\.task is not ascending"),
    ]

    @staticmethod
    def _snapshot(soa):
        service = MonitoringService(soa=soa)
        for name in ("hot", "edge", "held"):
            service.add_task(name, task(threshold=50.0, err=0.05))
        service.add_trigger_watch("edge", 40.0)
        service.add_remote_trigger("held", "edge", 40.0)
        # Every sparse group: a quantile task with a sealed sketch and one
        # without, an entropy ring, two window buffers.
        for name, window in (("q-sealed", 4), ("q-open", 16)):
            service.add_quantile_task(name, threshold=50.0, quantile=0.9,
                                      sketch_window=window)
        service.add_entropy_task("e", threshold=1.0, entropy_window=8)
        for name in ("w0", "w1"):
            service.add_task(name, task(threshold=50.0, err=0.05), window=3)
        for step in range(6):
            for name in service.task_names:
                service.offer(name, 45.0 + 2 * step, step)
        snapshot = service.snapshot()
        assert snapshot["task"]["alerts"].sum() > 0
        return snapshot

    @staticmethod
    def _refused(snapshot, damage, culprit, soa, monkeypatch):
        assert (state_fingerprint(MonitoringService.restore(
            snapshot, soa=soa).snapshot()) == state_fingerprint(snapshot))
        damage(snapshot)
        built = []
        init = MonitoringService.__init__
        monkeypatch.setattr(
            MonitoringService, "__init__", lambda self, *args, **kwargs: (
                built.append(self), init(self, *args, **kwargs))[1])
        with pytest.raises(ConfigurationError, match=culprit):
            MonitoringService.restore(snapshot, soa=soa)
        assert not built

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    @pytest.mark.parametrize("damage, culprit", CASES,
                             ids=[case.__name__[1:] for case, _ in CASES])
    def test_is_refused_by_name_before_a_service_exists(
            self, damage, culprit, soa, monkeypatch):
        wire = json.loads(json.dumps(self._snapshot(soa=True),
                                     default=np.ndarray.tolist))
        self._refused(wire, damage, culprit, soa, monkeypatch)

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    @pytest.mark.parametrize("document", [[], None, "x"],
                             ids=["list", "null", "string"])
    def test_a_document_that_is_not_a_map_is_refused(
            self, document, soa, monkeypatch):
        built = []
        init = MonitoringService.__init__
        monkeypatch.setattr(
            MonitoringService, "__init__", lambda self, *args, **kwargs: (
                built.append(self), init(self, *args, **kwargs))[1])
        with pytest.raises(ConfigurationError,
                           match="the document is not a map"):
            MonitoringService.restore(document, soa=soa)
        assert not built

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    @pytest.mark.parametrize("damage, culprit", ARRAY_CASES, ids=[
        case.__name__[1:] for case, _ in ARRAY_CASES])
    def test_an_array_is_refused_by_name_before_a_service_exists(
            self, damage, culprit, soa, monkeypatch):
        # Either service's document, onto either: both write the arrays.
        self._refused(self._snapshot(soa=not soa), damage, culprit, soa,
                      monkeypatch)


class TestSnapshotOntoEngineRows:
    """Before every task was an engine row, windowed, quantile, entropy,
    guarded and watched tasks were checkpointed from their scalar state.
    Such a checkpoint — here taken from a scalar service, with a guard
    disarmed and its suspensions counted, and a watcher inside its hold —
    must restore onto rows and carry on as if never interrupted."""

    def test_scalar_written_snapshot_continues_on_rows(self,
                                                       soa_differential):
        pair = soa_differential(soa_differential.population(6, "mixed"),
                                register_more=soa_differential
                                .register_kinds)
        everyone = list(range(len(pair.names)))
        rng = np.random.default_rng(41)
        scalar = pair.scalar

        def ready():
            guard = scalar.trigger_status("guarded-0")
            watch = scalar.trigger_status("trigger-1")["watch"]
            return (not guard["armed"] and guard["suspensions"] > 0
                    and watch["last_transition"] is not None
                    and step - watch["last_transition"]
                    < watch["min_hold"])

        for step in range(400):
            pair.offer(everyone, [step] * len(everyone),
                       [pair.draw(rng, i, step) for i in everyone])
            if step > 150 and ready():
                break
        assert ready()
        written = json.loads(json.dumps(scalar.snapshot(),
                                        default=np.ndarray.tolist))
        assert any(written["sparse"]["guard"]["suspensions"])

        restored = MonitoringService.restore(written, soa=True)
        assert all(restored.soa_row_for(name) >= 0 for name in pair.names)
        assert (state_fingerprint(restored.snapshot())
                == state_fingerprint(written))
        # Carry on: the uninterrupted scalar service offer by offer, the
        # restored one in column batches on its new rows.
        edges = []
        restored.set_trigger_sink(edges.append)
        seen = len(pair.edges[id(scalar)])
        rows = np.asarray([restored.soa_row_for(n) for n in pair.names])
        for step in range(step + 1, step + 200):
            values = [pair.draw(rng, i, step) for i in everyone]
            for name, value in zip(pair.names, values):
                try:
                    scalar.offer_fast(name, value, step)
                except ValueError:
                    pass
            restored.offer_columns(rows, [step] * len(rows), values,
                                   pair.names)
        assert (state_fingerprint(restored.snapshot())
                == state_fingerprint(scalar.snapshot()))
        assert edges == pair.edges[id(scalar)][seen:] and edges
        for name in pair.names:
            assert restored.alerts(name)[-5:] == scalar.alerts(name)[-5:]
