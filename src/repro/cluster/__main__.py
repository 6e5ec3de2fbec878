"""``python -m repro.cluster`` starts the multi-process cluster.

One command brings up the full topology: the routing tier listening on
TCP, N worker processes (or in-proc hosts / remote TCP endpoints,
depending on ``--backend``), shard placement, the heartbeat failure
detector and — when ``--checkpoint`` is given — periodic cluster
checkpoints. The config file format is the same one
``python -m repro.runtime`` takes (``defaults`` / ``tasks`` /
``triggers`` / ``adaptation``), with the runtime section named
``cluster`` instead of ``runtime``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import sys
from typing import Any

from repro.config import ClusterConfig
from repro.runtime.frontend import (cli_overrides, load_config_file, run_cli,
                                    write_ready_file)

from repro.cluster.server import ClusterServer

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Multi-process sharded cluster for Volley monitoring "
                    "tasks: routing tier + N workers + live migration.")
    parser.add_argument("--config", type=pathlib.Path, default=None,
                        help="JSON config file; may hold a 'cluster' "
                             "section plus defaults/tasks/triggers")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes to spawn (default 2)")
    parser.add_argument("--shards", type=int, default=None,
                        help="global shard count (default 2x workers)")
    parser.add_argument("--backend", default=None,
                        choices=["inproc", "subprocess", "tcp"])
    parser.add_argument("--worker-endpoint", action="append", default=None,
                        metavar="HOST:PORT",
                        help="tcp backend: one per worker, repeatable")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None,
                        help="router TCP port (0 = ephemeral)")
    parser.add_argument("--http-port", type=int, default=None,
                        help="fleet telemetry HTTP port (0 = ephemeral; "
                             "omitted = disabled)")
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument("--checkpoint", dest="checkpoint_path",
                        type=pathlib.Path, default=None,
                        help="cluster checkpoint file (restored at startup "
                             "if it exists; flushed on shutdown)")
    parser.add_argument("--checkpoint-interval", type=float, default=None)
    parser.add_argument("--heartbeat-interval", type=float, default=None)
    parser.add_argument("--runtime-dir", type=pathlib.Path, default=None,
                        help="directory for worker sockets/ready files "
                             "(default: a fresh temp dir)")
    parser.add_argument("--ready-file", type=pathlib.Path, default=None,
                        help="write {port, http_port, pid, workers} JSON "
                             "once listening")
    return parser


def _cluster_config(args: argparse.Namespace,
                    file_section: dict[str, Any]) -> ClusterConfig:
    base = ClusterConfig.from_dict(file_section)
    overrides = cli_overrides(args, base)
    if args.worker_endpoint:
        overrides["worker_endpoints"] = tuple(args.worker_endpoint)
        overrides.setdefault("workers", len(args.worker_endpoint))
        overrides.setdefault("backend", "tcp")
    return dataclasses.replace(base, **overrides)


async def _run(args: argparse.Namespace) -> None:
    section, adaptation, service_config = load_config_file(args.config,
                                                           "cluster")
    server = ClusterServer(_cluster_config(args, section),
                           adaptation=adaptation,
                           service_config=service_config)
    await server.start()
    endpoints = [f"tcp {server.config.host}:{server.tcp_port}"]
    if server.http_port is not None:
        endpoints.append(f"http {server.config.host}:{server.http_port}")
    print(f"[cluster] listening on {', '.join(endpoints)} "
          f"({len(server.transports)} workers x {server.n_shards} shards, "
          f"backend={server.config.backend}, "
          f"{server.restored_tasks} tasks restored)", flush=True)
    write_ready_file(args.ready_file, {
        "port": server.tcp_port,
        "http_port": server.http_port,
        "pid": os.getpid(),
        "workers": server.worker_pids()})
    await server.serve_forever()
    print("[cluster] shut down cleanly", flush=True)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.cluster``)."""
    return run_cli("cluster", _build_parser(), _run, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
