"""Sharded live-ingestion runtime for the monitoring service (S26).

Everything before this package replays *traces*; ``repro.runtime`` is the
first surface that actually serves traffic. It wraps one
:class:`~repro.service.MonitoringService` per shard behind an asyncio
server speaking a length-prefixed JSON protocol
(:mod:`repro.runtime.protocol`):

* ``offer_batch`` carries many ``(task, step, value)`` updates per frame,
  routed to shards by a stable hash of the task name;
* bounded per-shard queues give explicit backpressure — a lagging shard
  sheds batches with a ``retry_after_ms`` hint instead of blocking the
  event loop;
* ``snapshot``/``restore`` checkpoints persist full sampler state (Welford
  statistics, current interval, patience streak, next-due step) so a
  restarted server resumes exactly where the previous one stopped;
* graceful shutdown (SIGTERM) drains the queues and flushes a final
  checkpoint, so every acknowledged offer is either applied or
  checkpointed;
* observability through :mod:`repro.telemetry` (S29): the ``telemetry``
  and ``trace`` wire ops, and — with ``--http-port`` — a scrapeable
  ``/metrics`` + ``/healthz`` + ``/trace`` HTTP endpoint;
  ``--selfmon-interval`` turns on self-monitoring (the runtime's own
  health gauges watched as Volley tasks).

Entry points::

    python -m repro.runtime --port 7461 --shards 4 --checkpoint state.ckpt \\
        --http-port 9464 --selfmon-interval 1.0
    python -m repro.runtime.loadgen --tasks 64 --duration 5

(the second is a smoke driver: its exit code is the run's correctness
verdicts — ACK ledger, checkpoint round-trip, migration under load — and
it measures nothing; speed is ``bench/``'s job).

Clients: :class:`~repro.runtime.client.RuntimeClient` (sync) and
:class:`~repro.runtime.client.AsyncRuntimeClient` (asyncio).
"""

from repro.config import RuntimeConfig
from repro.runtime.checkpoint import read_checkpoint, write_checkpoint
from repro.runtime.client import AsyncRuntimeClient, RuntimeClient
from repro.runtime.protocol import (MAX_FRAME, PROTOCOL_BINARY,
                                    PROTOCOL_JSON, PROTOCOL_VERSION,
                                    OfferColumns, OfferReply, ShardOffer,
                                    decode_binary, encode_frame,
                                    encode_frame_parts,
                                    encode_offer_columns,
                                    encode_offer_reply, encode_shard_offer,
                                    read_frame, read_frame_blocking)
from repro.runtime.frontend import WireServer
from repro.runtime.server import RuntimeServer
from repro.runtime.shard import ShardWorker

__all__ = [
    "AsyncRuntimeClient",
    "MAX_FRAME",
    "OfferColumns",
    "OfferReply",
    "PROTOCOL_BINARY",
    "PROTOCOL_JSON",
    "PROTOCOL_VERSION",
    "RuntimeClient",
    "RuntimeConfig",
    "RuntimeServer",
    "ShardOffer",
    "ShardWorker",
    "WireServer",
    "decode_binary",
    "encode_frame",
    "encode_frame_parts",
    "encode_offer_columns",
    "encode_offer_reply",
    "encode_shard_offer",
    "read_checkpoint",
    "read_frame",
    "read_frame_blocking",
    "write_checkpoint",
]
