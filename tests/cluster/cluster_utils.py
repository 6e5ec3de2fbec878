"""Shared helpers for the cluster test suite."""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig
from repro.core.adaptation import AdaptationConfig

SCENARIO_DEADLINE_S = 120.0
"""How long one scenario may run: a hang fails its test instead of
stalling the suite (the slowest chaos scenario takes seconds)."""


def run_cluster(coro_factory: Callable[[ClusterServer], Awaitable[Any]],
                adaptation: AdaptationConfig | None = None,
                **config_kwargs: Any) -> Any:
    """Run one scenario against a fresh cluster and shut it down.

    Defaults to the in-proc backend (fast, single event loop) with two
    workers; pass ``backend="subprocess"`` etc. to override. A scenario
    that runs past ``SCENARIO_DEADLINE_S`` fails with ``TimeoutError``.
    """
    config_kwargs.setdefault("backend", "inproc")
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault("port", 0)

    async def runner():
        server = ClusterServer(ClusterConfig(**config_kwargs),
                               adaptation=adaptation)
        await server.start()
        try:
            return await asyncio.wait_for(coro_factory(server),
                                          SCENARIO_DEADLINE_S)
        finally:
            await server.shutdown()

    return asyncio.run(runner())
