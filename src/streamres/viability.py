"""Reproducible random substreams.

Rng hands out counter-derived substreams so every (seed, trial) pair sees
the same draws no matter how trials are scheduled.  substreams(lo, hi)
builds a whole range of them at once: the same keys and the same draws as
substream(i) one at a time, with numpy's SeedSequence hash run over the
block in array arithmetic.  Vectorised experiments key one substream per
TRIAL_BLOCK trials instead, so their draws depend on the block index alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Rng", "TRIAL_BLOCK"]

# Trials per block: the unit of block-keyed substreams and of the fixed
# reduction order that keeps results identical for any worker count.
TRIAL_BLOCK = 256

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_WORD = 1 << 32


def _word_count(value: int) -> int:
    """32-bit words SeedSequence splits a non-negative entropy int into."""
    return max(1, -(-int(value).bit_length() // 32))


def _xorshift(value: np.ndarray) -> np.ndarray:
    value ^= value >> np.uint32(16)
    return value


class _StateWords:
    """Hands PCG64 the four state words already hashed out of a key.

    substreams() registers it as a numpy ISeedSequence on use, so importing
    this module does not import numpy.random.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for exactly this: four uint64 words.
        return self._words


@dataclass(frozen=True, slots=True)
class Rng:
    """Root of a splittable random stream.

    substream(i, j, ...) derives an independent generator addressed purely
    by the integer path, so trial i draws identically whether trials run
    serially, threaded, or in any order.  split() extends the path prefix,
    giving each experiment its own namespace under one seed.
    """

    seed: int
    path: tuple[int, ...] = ()

    def split(self, *path: int) -> "Rng":
        return Rng(self.seed, self.path + path)

    def substream(self, *path: int) -> np.random.Generator:
        key = self.path + path
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def substreams(self, lo: int, hi: int) -> list[np.random.Generator]:
        """[self.substream(i) for i in range(lo, hi)], seeded as one block.

        The generators are bit-identical to the scalar path.  SeedSequence
        hashes seed and path into a pool, then mixes in each further key
        word; the pool after seed and path is shared by the block, so only
        the trial-index word is mixed per trial, in uint32 array arithmetic,
        before the four PCG64 state words are hashed out.  Each index must
        fit in one 32-bit word.
        """
        if not 0 <= lo <= hi <= _WORD:
            raise ValueError("substream indices must lie in [0, 2**32)")
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_StateWords)
        # Validates seed and path the way substream() would.
        pool = np.random.SeedSequence(self.seed, spawn_key=self.path).pool
        # Hash-constant steps taken by the prefix: one per pool word, one
        # per ordered pair of pool words, then one per pool word for every
        # key word beyond the (zero-padded) pool.
        extra = max(_word_count(self.seed), _POOL_SIZE) - _POOL_SIZE
        extra += sum(_word_count(part) for part in self.path)
        hash_a = _INIT_A * pow(_MULT_A, _POOL_SIZE**2 + _POOL_SIZE * extra, _WORD) % _WORD
        index = np.arange(lo, hi, dtype=np.uint64).astype(np.uint32)
        # mix(pool word, hashmix(index word)) into each pool word in turn.
        mixed = []
        for word in pool.tolist():
            value = index ^ np.uint32(hash_a)
            hash_a = hash_a * _MULT_A % _WORD
            value *= np.uint32(hash_a)
            value = _xorshift(value) * np.uint32(_MIX_MULT_R)
            mixed.append(_xorshift(np.uint32(_MIX_MULT_L * word % _WORD) - value))
        # generate_state(4, uint64): eight uint32 words cycled from the pool.
        halves = []
        hash_b = _INIT_B
        for i in range(2 * _POOL_SIZE):
            value = mixed[i % _POOL_SIZE] ^ np.uint32(hash_b)
            hash_b = hash_b * _MULT_B % _WORD
            value *= np.uint32(hash_b)
            halves.append(_xorshift(value).astype(np.uint64))
        # Little-endian pairs of uint32 words make each uint64 state word.
        state = np.stack(
            [low | high << np.uint64(32) for low, high in zip(halves[::2], halves[1::2])],
            axis=1,
        )
        return [
            np.random.Generator(np.random.PCG64(_StateWords(words))) for words in state
        ]
