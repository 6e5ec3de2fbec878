"""Seeded per-entity random streams.

Large simulations need independent, reproducible randomness per entity
(VM traffic, per-metric noise, flag draws) so that adding or removing one
entity does not reshuffle every other stream. :class:`RandomStreams`
derives a child ``numpy`` generator per ``(namespace, index)`` key from a
single master seed using ``SeedSequence`` spawning keyed by a stable CRC
of the namespace.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of named, reproducible random generators.

    Args:
        master_seed: single integer seed controlling the whole simulation.
    """

    def __init__(self, master_seed: int = 0):
        self._master_seed = int(master_seed)

    @property
    def master_seed(self) -> int:
        """The master seed the streams derive from."""
        return self._master_seed

    def stream(self, namespace: str, index: int = 0) -> np.random.Generator:
        """A generator unique to ``(namespace, index)``.

        Repeated calls with the same key return generators with identical
        state; different keys are statistically independent.
        """
        digest = zlib.crc32(namespace.encode("utf-8"))
        seq = np.random.SeedSequence([self._master_seed, digest, int(index)])
        return np.random.default_rng(seq)
