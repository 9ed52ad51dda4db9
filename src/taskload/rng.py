"""Deterministic random streams for reproducible simulations.

Every stochastic operation in this package draws from a RandomSource
rather than global state, so any result can be regenerated exactly from
the (seed, stream_id) pair recorded in its provenance.

A stream is numpy's PCG64 seeded through a SeedSequence whose spawn key
is the stream's lineage. RandomSource.substreams derives a run of
consecutive child streams without building a SeedSequence and a PCG64
for each: numpy supplies the pool the children share (the SeedSequence
pool of the parent key), and the library derives only each child. It
mixes the child indices into that pool as uint32 array arithmetic,
applies PCG64's seeding step, and loads each state into one PCG64
through its state setter. The streams are bit-for-bit those of
substream(i); NEP 19 fixes the SeedSequence hash and PCG64's seeding, so
tests/test_rng.py's check against substream holds across numpy releases.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
#: Child indices hashed per array pass; bounds the memory substreams holds.
_CHUNK = 4096


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

    def substreams(self, start: int, count: int) -> Iterator["RandomSource"]:
        """Yield ``substream(i)`` for i = start, ..., start + count - 1.

        Each yielded source draws exactly what ``substream(i)`` draws,
        but all of them share one generator, reloaded with the next
        child's initial state before that child is yielded: draw from a
        source only until the next one is requested.
        """
        if start < 0 or count < 0:
            raise ValueError(f"start and count must be >= 0, got "
                             f"{start} and {count}")
        lineage = self._lineage + (self.stream_id,)
        # numpy's pool for the parent key; its hash constant has stepped once
        # per pool word per entropy word (the seed's, padded, then lineage's)
        pool = np.random.SeedSequence(self.seed, spawn_key=lineage).pool
        n_words = (max(len(_words(self.seed)), _POOL_SIZE)
                   + sum(len(_words(key)) for key in lineage))
        hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words,
                                   _MASK32 + 1) & _MASK32
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        index, stop = int(start), int(start) + int(count)
        while index < stop:
            # a chunk never crosses a multiple of 2**32, so its indices
            # share every word but the lowest
            high = index >> 32
            end = min(stop, index + _CHUNK, (high + 1) << 32)
            low = (index & _MASK32) + np.arange(end - index, dtype=np.uint32)
            words = [low] + (_words(high) if high else [])
            chunk_pool = _absorb(pool, hash_const, words)
            for i, (state, inc) in enumerate(_pcg64_states(chunk_pool),
                                             index):
                bitgen.state = {"bit_generator": "PCG64",
                                "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}
                child = RandomSource.__new__(RandomSource)
                child.seed, child.stream_id = self.seed, i
                child._lineage, child._gen = lineage, gen
                yield child
            index = end

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


# --- SeedSequence and PCG64 seeding, on Python ints or uint32 arrays ------
#
# Every operation masks to 32 bits, so a word may be a Python int (shared
# by all children) or a uint32 array (one entry per child) and the two mix
# freely; the hash constant never depends on the words, so it stays an int.

def _words(n: int) -> list[int]:
    """n as SeedSequence reads an int: little-endian 32-bit words, at
    least one."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, hash_const: int):
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)
    result = result & _MASK32
    return result ^ result >> 16


def _absorb(pool: np.ndarray, hash_const: int, words: list) -> list:
    """Mix entropy words beyond the pool size into every pool word."""
    pool = pool.tolist()
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _pcg64_states(pool: list) -> Iterator[tuple[int, int]]:
    """(state, inc) of PCG64 seeded from each child's pool.

    The pool's generate_state(4, uint64) words give initstate and
    initseq, and PCG64's setseq seeding sets inc = 2 initseq + 1 and
    state = (inc + initstate) * multiplier + inc, mod 2**128.
    """
    hash_const, words = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append((value ^ value >> 16).astype(np.uint64))
    halves = [(words[2 * j] | words[2 * j + 1] << 32).tolist()
              for j in range(4)]
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        initstate = state_hi << 64 | state_lo
        yield ((initstate + inc) * _PCG_MULT + inc) & _MASK128, inc
