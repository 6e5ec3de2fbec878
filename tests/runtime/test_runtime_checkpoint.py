"""Checkpoint persistence and service snapshot/restore tests."""

from __future__ import annotations

import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.online_stats import OnlineStatistics
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.checkpoint import (_MIN_PACKED, CHECKPOINT_VERSION,
                                      read_checkpoint, state_fingerprint,
                                      write_checkpoint)
from repro.service import SNAPSHOT_VERSION, MonitoringService


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
                         "up": [True, False] * _MIN_PACKED}],
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
        assert head["checkpoint_version"] == CHECKPOINT_VERSION == 3
        assert [entry[1:] for entry in head["columns"]] == [
            ["f8", _MIN_PACKED], ["i8", _MIN_PACKED], ["b1", 2 * _MIN_PACKED]]
        state = read_checkpoint(path)
        assert state.pop("checkpoint_version") == CHECKPOINT_VERSION
        assert state == self.STATE

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
                           match=r"format version 2;.*format version 3\b"):
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
    [0.0, -0.0, _NAN, -_NAN, math.inf, -math.inf, 5e-324, -2.2e-308])
_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
_WIDE = st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 90])
_LEAVES = (_FLOATS | _INT64 | _WIDE | st.booleans() | st.text(max_size=3)
           | st.none())


def _runs(element):
    """Lists of ``element`` on and around the packing threshold."""
    return st.integers(0, 3).flatmap(lambda size: st.lists(
        element, min_size=size, max_size=size)) | st.sampled_from(
        [_MIN_PACKED - 1, _MIN_PACKED, _MIN_PACKED + 1]).flatmap(
        lambda size: st.lists(element, min_size=size, max_size=size))


_COLUMNS = (_runs(_FLOATS) | _runs(_INT64) | _runs(st.booleans())
            | _runs(_INT64 | _WIDE) | _runs(_FLOATS | _INT64)
            | _runs(_FLOATS | st.none()) | _runs(_LEAVES))
# Keys include the head's own, at every depth, to show none is reserved.
_KEYS = st.sampled_from(["columns", "state", "shards", "x"]) \
    | st.text(max_size=4)
_DOCS = st.dictionaries(
    _KEYS.filter(lambda key: key != "checkpoint_version"),
    st.recursive(_LEAVES | _COLUMNS, lambda inner: st.lists(
        inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
        max_leaves=12),
    max_size=5)


def _identical(read, written):
    """Equal, with ``type(a) is type(b)`` at every leaf and keys in the
    same order; floats equal as JSON spells them (``-0.0`` apart from
    ``0.0``, any ``nan`` equal to any ``nan``)."""
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


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "doc.ckpt"


class TestCodecRoundTrip:
    """``read_checkpoint(write_checkpoint(doc))`` is ``doc``: whatever is
    packed comes back as the same Python values, whatever cannot be
    packed stays JSON, and the fingerprint cannot tell the two apart."""

    @settings(max_examples=150, deadline=None)
    @given(doc=_DOCS)
    def test_the_document_comes_back_identical(self, scratch_file, doc):
        write_checkpoint(scratch_file, doc)
        read = read_checkpoint(scratch_file)
        assert read.pop("checkpoint_version") == CHECKPOINT_VERSION
        _identical(read, doc)
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
        spec = task(err=0.05)
        sampler = ViolationLikelihoodSampler(spec)
        for step in range(40):
            sampler.observe(1.0, step)
        clone = ViolationLikelihoodSampler(spec)
        clone.load_state_dict(sampler.state_dict())
        assert clone.drain_coordination_stats() \
            == sampler.drain_coordination_stats()


class TestServiceSnapshot:
    def test_snapshot_is_json_serialisable(self):
        service = MonitoringService()
        service.add_task("a", task(), window=3,
                         window_kind=AggregateKind.MAX)
        for step in range(20):
            service.offer("a", float(step * 7 % 13), step)
        snapshot = service.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

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
        snapshot = json.loads(json.dumps(interrupted.snapshot()))
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
        assert service.snapshot()["sparse"]["remote_trigger"] == {
            "a": "gone"}
        assert MonitoringService.restore(
            service.snapshot()).snapshot() == service.snapshot()

    def test_window_buffer_survives_restore(self):
        service = MonitoringService()
        service.add_task("w", task(threshold=1e9, err=0.0), window=5,
                         window_kind=AggregateKind.MEAN)
        for step, v in enumerate([1.0, 2.0, 3.0]):
            service.offer("w", v, step)
        restored = MonitoringService.restore(service.snapshot())
        # Next aggregate must still see the pre-snapshot window contents.
        state = restored._state("w")
        assert state.aggregate(3, 6.0) == pytest.approx(3.0)


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
    s["sparse"]["watch"]["ghost"] = dict(s["sparse"]["watch"]["edge"])


def _half_a_guard(s):
    del s["sparse"]["trigger_armed"]["held"]


def _unknown_map(s):
    s["sparse"]["colour"] = {}


def _version_1(s):
    s["version"] = 1


def _version_2(s):
    s["version"] = 2


def _version_4(s):
    s["version"] = 4


def _version_999(s):
    s["version"] = 999


def _no_version(s):
    del s["version"]


def _version_as_string(s):
    s["version"] = "3"


def _version_as_float(s):
    s["version"] = 3.0


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


def _unknown_top_level_key(s):
    s["tasks"] = []


def _versions(got):
    """The culprit of a document stamped ``got``: it and the one version
    ``restore`` reads, named."""
    return rf"version {got};.*version {SNAPSHOT_VERSION}\b"


class TestMalformedSnapshot:
    """A document that is not a version-3 snapshot — any other stamp, or
    a version-3 stamp on a body that is not one — is refused by name,
    before a service exists, onto rows and onto the scalar oracle alike.
    Nothing upgrades an older stamp."""

    CASES = [
        (_ragged, "sampler.mean"),
        (_missing, r"'task'.*\['window'\]"),
        (_unknown, r"'spec'.*\['colour'\]"),
        (_string_in_a_float_column, "sampler.var"),
        (_null_under_a_raised_flag, "sampler.last_value"),
        (_counts_that_do_not_add_up, "alerts.step"),
        (_sparse_key_outside_names, "'watch'"),
        (_half_a_guard, "trigger_armed"),
        (_unknown_map, r"'sparse'.*\['colour'\]"),
        (_version_1, _versions(1)),
        (_version_2, _versions(2)),
        (_version_4, _versions(4)),
        (_version_999, _versions(999)),
        (_no_version, _versions(None)),
        (_version_as_string, _versions("'3'")),
        (_version_as_float, _versions(r"3\.0")),
        (_bool_in_an_int_column, "task.next_due"),
        (_int_beyond_64_bits, "sampler.last_time"),
        (_a_task_twice, "names"),
        (_config_index_out_of_range, "task.adaptation"),
        (_unknown_direction, "spec.direction.*sideways"),
        (_unknown_top_level_key, r"\['tasks'\]"),
    ]

    @staticmethod
    def _snapshot():
        service = MonitoringService(soa=True)
        for name in ("hot", "edge", "held"):
            service.add_task(name, task(threshold=50.0, err=0.05))
        service.add_trigger_watch("edge", 40.0)
        service.add_remote_trigger("held", "edge", 40.0)
        for step in range(6):
            for name in ("hot", "edge", "held"):
                service.offer(name, 45.0 + 2 * step, step)
        snapshot = json.loads(json.dumps(service.snapshot()))
        assert sum(snapshot["task"]["alerts"]) > 0
        return snapshot

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    @pytest.mark.parametrize("damage, culprit", CASES,
                             ids=[case.__name__[1:] for case, _ in CASES])
    def test_is_refused_by_name_before_a_service_exists(
            self, damage, culprit, soa, monkeypatch):
        snapshot = self._snapshot()
        assert (MonitoringService.restore(snapshot, soa=soa).snapshot()
                == snapshot)
        damage(snapshot)
        built = []
        init = MonitoringService.__init__
        monkeypatch.setattr(
            MonitoringService, "__init__", lambda self, *args, **kwargs: (
                built.append(self), init(self, *args, **kwargs))[1])
        with pytest.raises(ConfigurationError, match=culprit):
            MonitoringService.restore(snapshot, soa=soa)
        assert not built


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
        written = json.loads(json.dumps(scalar.snapshot()))
        assert any(written["sparse"]["trigger_suspensions"].values())

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
