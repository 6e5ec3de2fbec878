"""The load-driver CLI, self-hosted: clean runs, and each verdict failing."""

from __future__ import annotations

import json

import pytest

from repro.runtime import loadgen
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.loadgen import main
from repro.runtime.server import RuntimeServer
from repro.testkit.faults import FaultHook

RUN = ["--tasks", "8", "--duration", "0.4", "--batch", "64", "--shards", "2",
       "--seed", "3"]
INPROC = ["--cluster-workers", "2", "--cluster-backend", "inproc",
          "--migrate-under-load"]


def test_self_hosted_run_writes_report(tmp_path):
    out = tmp_path / "bench.json"
    ckpt = tmp_path / "ckpt.json"
    rc = main([*RUN, "--triggers", "--checkpoint", str(ckpt),
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["tasks"] == 8
    assert report["shards"] == 2
    assert report["offers"] > 0
    assert report["accepted"] == report["offers"]
    assert report["applied"] == report["accepted"]
    # The graceful stop flushed a checkpoint and it round-tripped.
    assert report["checkpoint_roundtrip"] is True
    assert ckpt.exists()
    # Server-side accounting: the telemetry snapshots taken around the
    # drive must agree with the clients' own counting.
    server = report["server"]
    assert server["offered_delta"] == report["accepted"]
    assert server["shed_delta"] == report["shed"]
    assert report["counters_consistent"] is True
    # Every odd task is guarded by the first; the channel saw traffic.
    triggers = report["triggers"]
    assert triggers["plans"] == triggers["guarded_tasks"] == 4
    assert triggers["edges"]["arm"] > 0 and triggers["suspensions"] > 0


def test_forced_json_protocol_still_reports(tmp_path):
    out = tmp_path / "bench.json"
    rc = main([*RUN, "--protocol", "json", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["protocol"] == 1
    assert report["offers"] > 0
    assert report["counters_consistent"] is True


def test_binary_protocol_negotiates(tmp_path):
    out = tmp_path / "bench.json"
    rc = main([*RUN, "--batch", "256", "--protocol", "binary",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["protocol"] == 2
    assert report["offers"] > 0
    assert report["applied"] == report["accepted"]
    assert report["counters_consistent"] is True


def test_inproc_cluster_migrates_a_shard_under_load(tmp_path):
    out = tmp_path / "bench.json"
    rc = main([*RUN, *INPROC, "--connections", "2", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["cluster"] == {"workers": 2, "backend": "inproc"}
    migration = report["migration"]
    assert migration["ok"] and migration["fingerprint_match"]
    assert report["counters_consistent"] is True


class _Plant(FaultHook):
    """Hangs up on whoever sends frame number ``drop``; with
    ``duplicate``, dispatches every JSON offer frame twice."""
    enabled = True

    def __init__(self, drop=0, duplicate=False):
        self.frames, self.drop, self.duplicate = 0, drop, duplicate

    def frame_body(self, body):
        self.frames += 1
        return None if self.frames == self.drop else body

    def duplicate_frame(self, request):
        return self.duplicate


def _self_host_with(monkeypatch, hook):
    class Planted(RuntimeServer):
        def __init__(self, config):
            super().__init__(config, fault_hook=hook)
    monkeypatch.setattr(loadgen, "RuntimeServer", Planted)


def test_failing_sender_fails_the_run_with_its_own_error(monkeypatch,
                                                         capsys):
    # Frame 40 is an offer of one of the two senders, mid-run: 8
    # registrations, a telemetry read and two hello/intern pairs precede.
    _self_host_with(monkeypatch, _Plant(drop=40))
    assert main([*RUN, "--connections", "2"]) == 1
    assert ("FAIL: ProtocolError: server closed the connection"
            in capsys.readouterr().err)


@pytest.mark.parametrize("verdict, message", [
    ("ledger", "ACK ledger"), ("checkpoint", "did not round-trip"),
    ("migration", "bit-identically")])
def test_each_verdict_fails_the_run(verdict, message, tmp_path, monkeypatch,
                                    capsys):
    argv = [*RUN, "--checkpoint", str(tmp_path / "ckpt.json")]
    if verdict == "ledger":
        # Offered twice on the server, ACKed once to the client.
        _self_host_with(monkeypatch, _Plant(duplicate=True))
        argv += ["--protocol", "json"]
    elif verdict == "checkpoint":
        monkeypatch.setattr(loadgen, "read_checkpoint",
                            lambda path: {"shards": {}})
    else:
        async def unverified(self, shard, worker):
            return {"ok": True, "shard": shard, "to": worker,
                    "fingerprint_match": False}
        monkeypatch.setattr(AsyncRuntimeClient, "migrate", unverified)
        argv = [*RUN, *INPROC]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
