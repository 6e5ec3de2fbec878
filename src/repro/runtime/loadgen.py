"""Smoke driver for the ingestion runtime (``python -m repro.runtime.loadgen``).

Registers N synthetic tasks on a server, pushes offers at it over C
concurrent connections for a fixed time, and exits with the run's
*correctness* verdicts. It measures nothing — throughput, latency and
per-layer cost are ``bench/``'s job — and the exit code is non-zero when:

* **ledger** — on a server the driver hosts itself, the offers its
  clients saw ACKed differ from the server's own
  ``volley_updates_offered_total`` delta (single-process: the shed counts
  too): an acknowledged update never reached a shard queue, or reached
  one twice;
* **checkpoint** — with ``--checkpoint`` (self-hosted, single-process)
  the run ends in a graceful stop, which flushes a final checkpoint; it
  is restored, and some task does not come back with its exact interval,
  next-due step and sample count;
* **migration** — with ``--migrate-under-load`` (self-hosted cluster of
  two or more workers) one shard is moved to the least-loaded other
  worker at the midpoint, senders still running, and the move does not
  report ``ok`` and ``fingerprint_match``;
* any sender fails — a protocol error, a refused negotiation, a reset
  connection fails the run with that error.

The server: by default a :class:`~repro.runtime.server.RuntimeServer`, or
with ``--cluster-workers N`` a :class:`~repro.cluster.server.ClusterServer`
fleet (``subprocess`` backend unless told otherwise), started on an
ephemeral loopback port in the senders' own event loop, as
``repro.scenarios.replay`` hosts its server. ``--connect HOST:PORT``
drives one that is already running; the driver cannot know it is that
server's only client, so there is no ledger verdict.

The offers: round-robin over each connection's even share of the tasks,
heavy noise under the threshold, so samplers both stretch their intervals
and alert. Every frame is built as numpy columns; ``--protocol auto``
(default) negotiates per connection and sends them binary when the server
agrees, ``json`` spells the same columns as ``[name, step, value]`` rows,
``binary`` refuses to run on less than protocol 2. ``--triggers`` guards
every odd-numbered task behind the first one (``repro.triggers``) and
reports the channel's edges and suspensions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time
from typing import Any

import numpy as np

from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.exceptions import ProtocolError, ReproError
from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.protocol import PROTOCOL_BINARY
from repro.runtime.server import RuntimeServer
from repro.service import MonitoringService

__all__ = ["main", "run_loadgen"]

_THRESHOLD = 100.0
_VALUE_MEAN, _VALUE_STD = 80.0, 18.0   # ~13 % of offered values violate

_MIGRATION_SHARD = 0
"""The shard moved by ``--migrate-under-load`` (every shard carries an
even slice of the synthetic tasks, so any one is representative)."""

_LEDGER = ("offered", "shed", "rejected")      # server counter families
_SEEN = ("offers", "accepted", "shed", "rejected")  # a sender's own tally
_SCHEDULE = ("interval", "next_due", "samples_taken")


async def _server_counters(client: AsyncRuntimeClient) -> dict[str, int]:
    """The server's ``volley_updates_*_total`` families, series summed."""
    metrics = (await client.telemetry())["metrics"]
    return {key: int(sum(
        series["value"] for series in
        metrics.get(f"volley_updates_{key}_total", {}).get("series", [])))
        for key in _LEDGER}


async def _send(client: AsyncRuntimeClient, names: list[str],
                args: argparse.Namespace, seed: int) -> dict[str, Any]:
    """One connection's closed loop over its share of the tasks.

    Frames are ``args.batch`` offers, round-robin over ``names``, built as
    numpy columns whatever the encoding: element i of a frame is the
    ``i // len(names)``-th repeat of its task within it, which makes the
    step column a closed form. Returns what the connection saw ACKed.
    """
    binary = (args.protocol != "json"
              and await client.negotiate() >= PROTOCOL_BINARY)
    if binary:
        # After registration, so the server resolves every name to a row.
        indexes = np.asarray(await client.intern(names), dtype=np.uint32)
    elif args.protocol == "binary":
        raise ProtocolError(
            f"--protocol binary requested but the server only speaks "
            f"protocol {client.protocol}")
    mask = (1 << 16) - 1
    table = np.random.default_rng(seed).normal(_VALUE_MEAN, _VALUE_STD,
                                               mask + 1)
    count = len(names)
    lane = np.arange(args.batch, dtype=np.int64)
    occurrence = lane // count
    full_cycles, remainder = divmod(args.batch, count)
    steps = np.zeros(count, dtype=np.int64)
    seen = np.zeros(len(_SEEN), dtype=np.int64)
    cursor = 0
    started = time.perf_counter()
    while time.perf_counter() - started < args.duration:
        positions = (cursor + lane) % count
        frame_steps = steps[positions] + occurrence
        frame_values = table[(seen[0] + lane) & mask]
        if binary:
            reply = await client.offer_columns(indexes[positions],
                                               frame_steps, frame_values)
            seen += (args.batch, reply.accepted, reply.shed, reply.rejected)
        else:
            reply = await client.offer_batch(
                [[names[p], s, v] for p, s, v in zip(
                    positions.tolist(), frame_steps.tolist(),
                    frame_values.tolist())])
            seen += (args.batch, reply["accepted"], reply["shed"],
                     reply["rejected"])
        steps += full_cycles
        if remainder:
            steps[(cursor + np.arange(remainder)) % count] += 1
        cursor = (cursor + args.batch) % count
    return {**dict(zip(_SEEN, seen.tolist())), "protocol": client.protocol,
            "elapsed": time.perf_counter() - started}


async def _migrate_at_midpoint(control: AsyncRuntimeClient,
                               delay: float) -> dict[str, Any]:
    """Move one shard to the least-loaded other live worker, under load.

    The cutover must be invisible to the senders, beyond a wait (a frame
    to the moving shard is held until the move settles); returns the
    coordinator's own account of it.
    """
    await asyncio.sleep(delay)
    workers = (await control.placement())["workers"]
    load = {wid: len(entry["shards"]) for wid, entry in workers.items()
            if entry["alive"] and _MIGRATION_SHARD not in entry["shards"]}
    return await control.migrate(
        _MIGRATION_SHARD, min(load, key=lambda wid: (load[wid], wid)))


def _restored_schedules(checkpoint: pathlib.Path) -> dict[str, dict]:
    """Every task's schedule as a restore of ``checkpoint`` gives it."""
    restored = {}
    for entry in read_checkpoint(checkpoint)["shards"].values():
        service = MonitoringService.restore(entry["snapshot"])
        for name in service.task_names:
            restored[name] = {key: getattr(service, key)(name)
                              for key in _SCHEDULE}
    return restored


async def run_loadgen(args: argparse.Namespace) -> dict[str, Any]:
    """One run against a self-hosted or ``--connect``ed server; returns
    the report (verdicts included, ``None`` where one does not apply)."""
    server: RuntimeServer | ClusterServer | None = None
    host, port = "127.0.0.1", 0
    if args.connect is not None:
        host, _, port_text = args.connect.rpartition(":")
        port = int(port_text)
    elif args.cluster_workers:
        server = ClusterServer(ClusterConfig(
            workers=args.cluster_workers,
            shards=max(args.shards, args.cluster_workers),
            backend=args.cluster_backend,
            max_batch=max(8192, args.batch), port=0))
    else:
        server = RuntimeServer(RuntimeConfig(
            shards=args.shards, max_batch=max(8192, args.batch), port=0,
            checkpoint_path=args.checkpoint, checkpoint_interval=3600.0))
    if server is not None:
        await server.start()
        port = server.tcp_port
    control = AsyncRuntimeClient(host, port)
    senders = [AsyncRuntimeClient(host, port)
               for _ in range(args.connections)]
    names = [f"lg-{i:04d}" for i in range(args.tasks)]
    migrate = bool(args.migrate_under_load and server is not None
                   and args.cluster_workers > 1)
    try:
        for name in names:
            # A server started from a config file may hold some already.
            if not (await control.request({"op": "task_info",
                                           "task": name})).get("ok"):
                await control.register_task(name, _THRESHOLD,
                                            error_allowance=0.01,
                                            max_interval=10)
        # The first task is the cheap edge source; every odd-indexed task
        # rides as an expensive guarded target. The elevation level sits
        # at the violation threshold, so the noisy healthy streams spend
        # most of the run disarmed and the channel's suspension
        # accounting has something to show.
        guarded = names[1::2] if args.triggers else []
        for target in guarded:
            await control.install_trigger_plan({
                "target": target, "trigger": names[0],
                "elevation_level": _THRESHOLD,
                "suspend_interval": 10, "hysteresis": 0.1, "min_hold": 3})

        before = (await _server_counters(control)
                  if server is not None else None)
        jobs = [_send(client, names[i::args.connections], args,
                      args.seed + i) for i, client in enumerate(senders)]
        if migrate:
            jobs.append(_migrate_at_midpoint(control, args.duration / 2.0))
        # Every job ends by itself (a sender at the deadline or at its
        # first error), so wait for all and then fail on the first error.
        done = await asyncio.gather(*jobs, return_exceptions=True)
        for result in done:
            if isinstance(result, BaseException):
                raise result
        sent = done[:args.connections]
        seen = {key: sum(r[key] for r in sent) for key in _SEEN}

        # Let the shards finish applying what was ACKed: the schedules
        # read below must be the ones the final checkpoint holds.
        drain_deadline = time.monotonic() + 30
        stats = await control.stats()
        while (stats["totals"]["applied"] + stats["totals"]["rejected"]
               < seen["accepted"] and time.monotonic() < drain_deadline):
            await asyncio.sleep(0.02)
            stats = await control.stats()

        server_side = consistent = None
        if before is not None:
            after = await _server_counters(control)
            server_side = {f"{key}_delta": after[key] - before[key]
                           for key in _LEDGER}
            # Every ACKed offer lands on a shard queue exactly once,
            # frames that waited for a migration included, and every shed
            # the server counts is one a sender saw.
            consistent = (
                server_side["offered_delta"] == seen["accepted"]
                and server_side["shed_delta"] == seen["shed"])

        triggers = None
        if args.triggers:
            reply = await control.trigger_plans()
            triggers = {"plans": len(reply.get("plans", [])),
                        "guarded_tasks": len(guarded),
                        "edges": dict(reply.get("edges", {})),
                        "suspensions": int(reply.get("suspensions", 0)),
                        "probe_collections_saved": float(
                            reply.get("probe_cost_saved", 0.0))}

        expected = None
        if isinstance(server, RuntimeServer) and args.checkpoint is not None:
            expected = {}
            for name in names:
                info = await control.task_info(name)
                expected[name] = {key: info[key] for key in _SCHEDULE}
    finally:
        for client in (control, *senders):
            await client.close()
        if server is not None:
            await server.shutdown()   # graceful: drains, flushes checkpoint

    totals = stats["totals"]
    return {
        "tasks": args.tasks,
        "shards": len(stats["shards"]),
        "cluster": ({"workers": args.cluster_workers,
                     "backend": args.cluster_backend}
                    if isinstance(server, ClusterServer) else None),
        "connections": args.connections,
        "protocol": min(r["protocol"] for r in sent),
        "batch": args.batch,
        "duration_s": round(max(r["elapsed"] for r in sent), 4),
        **seen,
        "applied": totals["applied"],
        "consumed": totals["consumed"],
        "alerts": totals["alerts"],
        "server": server_side,
        "counters_consistent": consistent,
        "checkpoint_roundtrip": (
            None if expected is None
            else _restored_schedules(args.checkpoint) == expected),
        "migration": done[-1] if migrate else None,
        "triggers": triggers,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.loadgen",
        description="Drive a self-hosted or running server with synthetic "
                    "tasks over several connections; the exit code is the "
                    "run's correctness verdicts (ACK ledger, checkpoint "
                    "round-trip, migration under load). Measures nothing: "
                    "see bench/.")
    parser.add_argument("--tasks", type=int, default=64,
                        help="synthetic tasks to register (default 64)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="send duration in seconds (default 5)")
    parser.add_argument("--batch", type=int, default=512,
                        help="offers per frame (default 512)")
    parser.add_argument("--connections", type=int, default=1,
                        help="concurrent sender connections, each driving "
                             "an even share of the tasks (default 1)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--protocol", default="auto",
                        choices=("auto", "json", "binary"),
                        help="offer encoding: auto negotiates per "
                             "connection (default), json spells every "
                             "frame as rows, binary requires protocol >= 2")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="drive an existing server instead of "
                             "self-hosting")
    parser.add_argument("--shards", type=int, default=4,
                        help="shards for the self-hosted server")
    parser.add_argument("--checkpoint", type=pathlib.Path, default=None,
                        help="(self-hosted, single-process) checkpoint "
                             "file; verifies a graceful-stop -> restore "
                             "round-trip")
    parser.add_argument("--cluster-workers", type=int, default=0,
                        help="self-host a repro.cluster fleet with this "
                             "many workers instead of a single-process "
                             "server (0 = single-process)")
    parser.add_argument("--cluster-backend", default="subprocess",
                        choices=("inproc", "subprocess"),
                        help="cluster transport backend (default "
                             "subprocess: one worker process each)")
    parser.add_argument("--migrate-under-load", action="store_true",
                        help="(self-hosted cluster, >= 2 workers) migrate "
                             "one shard at the midpoint of the run")
    parser.add_argument("--triggers", action="store_true",
                        help="guard every odd-indexed task behind the "
                             "first one (repro.triggers) and report the "
                             "channel's edges and suspensions")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the report here as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.runtime.loadgen``)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.connections <= args.tasks:
        parser.error("--connections must be between 1 and --tasks")
    if args.batch < 1:
        parser.error("--batch must be >= 1")
    try:
        report = asyncio.run(run_loadgen(args))
    except (ReproError, OSError) as exc:
        print(f"[loadgen] FAIL: {type(exc).__name__}: {exc}",
              file=sys.stderr, flush=True)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")

    cluster = report["cluster"]
    where = (f"{cluster['workers']}-worker {cluster['backend']} cluster"
             if cluster else "server")
    print(f"[loadgen] {where} [protocol {report['protocol']}]: "
          f"{report['accepted']} of {report['offers']} offers ACKed over "
          f"{report['connections']} connection(s) in "
          f"{report['duration_s']:.2f}s; applied={report['applied']} "
          f"shed={report['shed']} rejected={report['rejected']} "
          f"alerts={report['alerts']}", flush=True)
    triggers = report["triggers"]
    if triggers is not None:
        print(f"[loadgen] triggers: {triggers['plans']} plans over "
              f"{triggers['guarded_tasks']} guarded tasks; "
              f"edges={triggers['edges']} "
              f"suspensions={triggers['suspensions']} "
              f"probe_collections_saved="
              f"{triggers['probe_collections_saved']}", flush=True)

    failures = []
    migration = report["migration"]
    if migration is not None:
        moved = bool(migration.get("ok")
                     and migration.get("fingerprint_match"))
        print(f"[loadgen] migration under load: "
              f"{'ok' if moved else 'FAILED'} "
              f"shard={migration.get('shard')} "
              f"{migration.get('from')}->{migration.get('to')} "
              f"fingerprint_match={migration.get('fingerprint_match')}",
              flush=True)
        if not moved:
            failures.append(f"migration under load did not complete "
                            f"bit-identically: {migration}")
    consistent = report["counters_consistent"]
    if consistent is not None:
        print(f"[loadgen] counter consistency: "
              f"{'ok' if consistent else 'MISMATCH'}", flush=True)
        if not consistent:
            failures.append(f"server-side counters {report['server']} "
                            f"disagree with the clients' ACK ledger")
    roundtrip = report["checkpoint_roundtrip"]
    if roundtrip is not None:
        print(f"[loadgen] checkpoint roundtrip: "
              f"{'ok' if roundtrip else 'MISMATCH'}", flush=True)
        if not roundtrip:
            failures.append("checkpoint did not round-trip")
    for failure in failures:
        print(f"[loadgen] FAIL: {failure}", file=sys.stderr, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
