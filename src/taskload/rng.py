"""Deterministic random streams for reproducible simulations.

Every stochastic operation in this package draws from a RandomSource
rather than global state, so any result can be regenerated exactly from
the (seed, stream_id) pair recorded in its provenance.

A stream is numpy's PCG64 seeded through a SeedSequence whose spawn key
is the stream's lineage, so substream(i) of a source is an independent
stream for every i. The Monte Carlo harness draws chunk c of its runs
from substream c, and restart round j of that chunk from substream j
of the chunk's stream.
"""

from __future__ import annotations

import numpy as np


class RandomSource:
    """A reproducible random stream keyed by (seed, stream_id).

    Two sources constructed with the same key yield identical variate
    sequences; distinct stream ids yield statistically independent
    streams. Streams are backed by PCG64 seeded through a SeedSequence
    spawn key, so independence holds for any combination of ids without
    coordination between callers. Standard normals use numpy's ziggurat
    sampler (an exact method, not a CLT approximation).
    """

    __slots__ = ("seed", "stream_id", "_lineage", "_gen")

    def __init__(self, seed: int, stream_id: int = 0,
                 _lineage: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._lineage = tuple(int(k) for k in _lineage)
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=self._lineage + (self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RandomSource":
        """Derive an independent child stream.

        Children are keyed below this stream, so ``substream(i)`` of two
        different parents never collide even for equal ``i``.
        """
        return RandomSource(self.seed, index,
                            self._lineage + (self.stream_id,))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        return self._gen.random(size)

    def poisson(self, mean, size=None):
        return self._gen.poisson(mean, size)

    def __repr__(self) -> str:
        key = self._lineage + (self.stream_id,)
        return f"RandomSource(seed={self.seed}, key={key})"

