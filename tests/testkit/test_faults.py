"""Unit tests for the deterministic fault plan and its hook."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.testkit.faults import (CKPT_CORRUPT, CKPT_OK, CKPT_OSERROR,
                                  CKPT_TORN, FRAME_CORRUPT, FRAME_DROP,
                                  FRAME_OK, FRAME_TRUNCATE, FaultHook,
                                  FaultPlan, FaultSpec, InjectedFault,
                                  NOOP_HOOK, PlanFaultHook, stable_uniform)


class TestStableUniform:
    def test_pure_function_of_arguments(self):
        assert stable_uniform(7, "frame", 3) == stable_uniform(7, "frame", 3)

    def test_distinct_seams_and_indices_decorrelate(self):
        draws = {stable_uniform(7, seam, index)
                 for seam in ("frame", "dup", "shed")
                 for index in range(50)}
        assert len(draws) == 150

    def test_range_and_stability_across_processes(self):
        # Pinned value: this must never change, or every recorded
        # (seed, spec) reproduction in history silently shifts.
        for seed, seam, index in [(0, "frame", 0), (7, "apply:3", 12)]:
            u = stable_uniform(seed, seam, index)
            assert 0.0 <= u < 1.0
        assert stable_uniform(7, "frame", 0) \
            == pytest.approx(0.8623004970585783)


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(drop_connection_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(drop_connection_rate=0.5, truncate_frame_rate=0.4,
                      corrupt_frame_rate=0.2)  # frame rates sum > 1
        with pytest.raises(ConfigurationError):
            FaultSpec(torn_checkpoint_rate=0.6,
                      corrupt_checkpoint_rate=0.5)  # ckpt rates sum > 1
        with pytest.raises(ConfigurationError):
            FaultSpec(crash_fractions=(0.0,))
        with pytest.raises(ConfigurationError):
            FaultSpec(clock_skew_max=-1)

    def test_dict_roundtrip(self):
        spec = FaultSpec(drop_connection_rate=0.1, duplicate_frame_rate=0.2,
                         clock_skew_rate=0.3, clock_skew_max=2,
                         crash_fractions=(0.25, 0.75))
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown fault spec"):
            FaultSpec.from_dict({"drop_rate": 0.1})


class TestFaultPlan:
    def test_schedule_is_deterministic_and_order_independent(self):
        spec = FaultSpec(drop_connection_rate=0.2, truncate_frame_rate=0.2,
                         corrupt_frame_rate=0.2)
        a = FaultPlan(7, spec)
        b = FaultPlan(7, spec)
        forward = [a.frame_fault(i) for i in range(100)]
        backward = [b.frame_fault(i) for i in reversed(range(100))]
        assert forward == backward[::-1]
        assert set(forward) == {FRAME_OK, FRAME_DROP, FRAME_TRUNCATE,
                                FRAME_CORRUPT}

    def test_different_seeds_differ(self):
        spec = FaultSpec(drop_connection_rate=0.3)
        a = [FaultPlan(1, spec).frame_fault(i) for i in range(64)]
        b = [FaultPlan(2, spec).frame_fault(i) for i in range(64)]
        assert a != b

    def test_zero_rates_never_fire(self):
        plan = FaultPlan(7, FaultSpec())
        assert all(plan.frame_fault(i) == FRAME_OK for i in range(200))
        assert not any(plan.duplicate_offer(i) for i in range(200))
        assert not any(plan.force_shed(i) for i in range(200))
        assert not any(plan.shard_fault(s, i)
                       for s in range(4) for i in range(50))
        assert all(plan.checkpoint_fault(i) == CKPT_OK for i in range(50))
        assert all(plan.skew(t, s) == 0
                   for t in range(4) for s in range(50))

    def test_rates_approximately_honoured(self):
        plan = FaultPlan(7, FaultSpec(drop_connection_rate=0.25))
        drops = sum(plan.frame_fault(i) == FRAME_DROP for i in range(4000))
        assert 800 < drops < 1200  # 25% +- generous slack

    def test_checkpoint_actions_cover_all_kinds(self):
        plan = FaultPlan(7, FaultSpec(torn_checkpoint_rate=0.3,
                                      corrupt_checkpoint_rate=0.3,
                                      checkpoint_oserror_rate=0.3))
        actions = {plan.checkpoint_fault(i) for i in range(200)}
        assert actions == {CKPT_OK, CKPT_TORN, CKPT_CORRUPT, CKPT_OSERROR}

    def test_skew_bounded_and_deterministic(self):
        plan = FaultPlan(7, FaultSpec(clock_skew_rate=1.0,
                                      clock_skew_max=3))
        offsets = [plan.skew(t, s) for t in range(8) for s in range(100)]
        assert all(-3 <= o <= 3 for o in offsets)
        assert any(o != 0 for o in offsets)
        assert offsets == [plan.skew(t, s)
                           for t in range(8) for s in range(100)]

    def test_crash_steps_sorted_unique_in_range(self):
        plan = FaultPlan(7, FaultSpec(crash_fractions=(0.5, 0.25, 0.5)))
        assert plan.crash_steps(200) == (50, 100)
        assert plan.crash_steps(2) == (1,)  # never crash at step 0

    def test_truncate_bytes_is_a_strict_prefix(self):
        plan = FaultPlan(7, FaultSpec())
        body = b"0123456789" * 5
        for index in range(50):
            cut = plan.truncate_bytes(body, index, "frame")
            assert len(cut) < len(body)
            assert body.startswith(cut)

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        plan = FaultPlan(7, FaultSpec())
        body = b'{"op": "ping", "payload": "x"}'
        for index in range(50):
            mutated = plan.corrupt_bytes(body, index, "frame")
            assert len(mutated) == len(body)
            diff = [i for i in range(len(body)) if mutated[i] != body[i]]
            assert len(diff) == 1


class TestHooks:
    def test_noop_hook_is_disabled_and_inert(self):
        assert NOOP_HOOK.enabled is False
        assert NOOP_HOOK.frame_body(b"abc") == b"abc"
        assert NOOP_HOOK.duplicate_frame({}) is False
        assert NOOP_HOOK.force_shed(0) is False
        NOOP_HOOK.before_apply(0, 10)  # must not raise
        assert NOOP_HOOK.checkpoint_body(b"xyz") == b"xyz"
        assert isinstance(NOOP_HOOK, FaultHook)

    def test_disarmed_plan_hook_consumes_no_draws(self):
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(
            drop_connection_rate=1.0, duplicate_frame_rate=1.0,
            force_shed_rate=1.0)))
        hook.armed = False
        assert hook.frame_body(b"abc") == b"abc"
        assert hook.duplicate_frame({}) is False
        assert hook.force_shed(0) is False
        assert all(v == 0 for v in hook.injected.values())
        # Arming afterwards starts the schedule at index 0.
        hook.armed = True
        assert hook.frame_body(b"abc") is None  # drop rate 1.0, index 0

    def test_corrupted_frames_are_always_undecodable(self):
        # The shadow-replay contract: a corrupted frame must never decode
        # as valid JSON, or the server would apply garbage the scenario
        # driver cannot predict.
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(corrupt_frame_rate=1.0)))
        body = json.dumps({"op": "offer_batch",
                           "updates": [["t", 1, 2.0]]}).encode()
        for _ in range(100):
            mutated = hook.frame_body(body)
            assert mutated is not None
            with pytest.raises((ValueError, UnicodeDecodeError)):
                json.loads(mutated)
        assert hook.injected["frames_corrupted"] == 100

    def test_torn_checkpoints_always_damage_the_trailer(self):
        # Tearing must cut at least two bytes so the crc trailer (whose
        # final newline is optional) can never survive intact.
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(
            torn_checkpoint_rate=1.0)))
        body = b'{"checkpoint_version":2}\ncrc32:0123abcd\n'
        for _ in range(50):
            torn = hook.checkpoint_body(body)
            assert len(torn) <= len(body) - 2
            assert body.startswith(torn)

    def test_apply_fault_raises_injected_fault(self):
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(shard_error_rate=1.0)))
        with pytest.raises(InjectedFault):
            hook.before_apply(0, 4)
        assert hook.injected["apply_faults"] == 1

    def test_checkpoint_oserror_raises_plain_oserror(self):
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(
            checkpoint_oserror_rate=1.0)))
        with pytest.raises(OSError):
            hook.checkpoint_body(b"body")
        assert hook.injected["checkpoint_oserrors"] == 1

    def test_seam_counters_survive_rearming(self):
        # A crash-restart disarms and rearms the same hook; the frame
        # counter must continue, not reset, so the schedule stays aligned.
        plan = FaultPlan(7, FaultSpec(drop_connection_rate=0.5))
        hook = PlanFaultHook(plan)
        fates = []
        for index in range(20):
            if index == 10:
                hook.armed = False  # simulated restart window
                assert hook.frame_body(b"x") == b"x"
                hook.armed = True
            fates.append(hook.frame_body(b"x") is None)
        assert fates == [plan.frame_fault(i) == FRAME_DROP
                         for i in range(20)]


class TestBlockingReaderSeam:
    """The sync reader honours the same fault_hook seam as the async one.

    ``read_frame_blocking`` is what the blocking ``RuntimeClient`` reads
    its replies with (the subprocess worker transport reads on the event
    loop); chaos plans must bite there exactly as they do on the
    event-loop path.
    """

    @staticmethod
    def _frame(payload=None) -> bytes:
        from repro.runtime.protocol import (encode_frame_parts,
                                            encode_offer_columns)
        if payload is None:
            header, body = encode_offer_columns([1, 2], [0, 0], [3.0, 4.0])
        else:
            header, body = encode_frame_parts(payload)
        return header + body

    @staticmethod
    def _read(data: bytes, hook):
        import io

        from repro.runtime.protocol import read_frame_blocking
        return read_frame_blocking(io.BytesIO(data), fault_hook=hook)

    def test_dropped_frame_reads_as_clean_eof(self):
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(
            drop_connection_rate=1.0)))
        assert self._read(self._frame({"op": "ping"}), hook) is None
        assert hook.injected["frames_dropped"] == 1

    def test_truncated_frame_raises_mid_frame_error(self):
        from repro.exceptions import ProtocolError
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(
            truncate_frame_rate=1.0)))
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(self._frame({"op": "ping"}), hook)
        assert hook.injected["frames_truncated"] == 1

    def test_corrupted_json_frame_fails_decode(self):
        from repro.exceptions import ProtocolError
        hook = PlanFaultHook(FaultPlan(7, FaultSpec(
            corrupt_frame_rate=1.0)))
        with pytest.raises(ProtocolError):
            self._read(self._frame({"op": "ping"}), hook)
        assert hook.injected["frames_corrupted"] == 1

    def test_corrupted_binary_frame_fails_decode(self):
        # Corruption keeps the length but scrambles the body: a binary
        # frame must then fail structural decode, never apply garbage.
        from repro.exceptions import ProtocolError
        hook = PlanFaultHook(FaultPlan(3, FaultSpec(
            corrupt_frame_rate=1.0)))
        with pytest.raises(ProtocolError):
            self._read(self._frame(), hook)

    def test_sync_and_async_readers_share_the_schedule(self):
        # Same plan, same frame sequence: the fate of frame i is
        # identical through both readers.
        import asyncio
        import io

        from repro.runtime.protocol import read_frame, read_frame_blocking
        frames = [self._frame({"op": "ping", "i": i}) for i in range(12)]

        def fate_sync():
            hook = PlanFaultHook(FaultPlan(11, FaultSpec(
                drop_connection_rate=0.4)))
            return [read_frame_blocking(io.BytesIO(f), fault_hook=hook)
                    is None for f in frames]

        def fate_async():
            hook = PlanFaultHook(FaultPlan(11, FaultSpec(
                drop_connection_rate=0.4)))

            async def one(data):
                reader = asyncio.StreamReader()
                reader.feed_data(data)
                reader.feed_eof()
                return await read_frame(reader, fault_hook=hook)

            return [asyncio.run(one(f)) is None for f in frames]

        fates = fate_sync()
        assert fates == fate_async()
        assert any(fates) and not all(fates)
