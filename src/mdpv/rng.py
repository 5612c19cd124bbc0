"""Seeded random stream, standard library only.

`Stream(entropy)` draws exactly the numbers that
``numpy.random.default_rng(entropy)`` draws with the two methods mdpv
calls, `uniform` and `choice`.  numpy keeps its raw bit streams stable
across versions but not the `Generator` methods built on them, so mdpv
owns the whole path from a seed to a drawn value:

- entropy: each non-negative int is split into 32-bit words, low word
  first (0 is one word); a sequence of ints joins their words in order;
- seeding: numpy's `SeedSequence` hashes the words into a pool of four
  and stretches the pool into four 64-bit words w0..w3, which seed
  PCG64 with state (w0 << 64) | w1 and stream (w2 << 64) | w3;
- generator: PCG64, the XSL-RR 128/64 output of a 128-bit LCG
  (O'Neill, HMC-CS-2014-0905), seeded as its `srandom_r` does;
- `uniform`: the top 53 bits of one output as a double in [0, 1),
  scaled onto the range;
- `choice`: Lemire's bounded integer on a 32-bit draw, where each
  32-bit draw is the low half of a 64-bit output and the high half is
  kept for the next 32-bit draw.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["Stream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence: pool size and hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """32-bit words of an int, low word first, or of a sequence of
    ints, in order."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError(f"entropy must be non-negative, got {entropy}")
        words = [entropy & _MASK32]
        entropy >>= 32
        while entropy:
            words.append(entropy & _MASK32)
            entropy >>= 32
        return words
    return [w for part in entropy for w in _words(part)]


def _seed_state(words: list[int]) -> tuple[int, int]:
    """(state seed, stream) of PCG64 from SeedSequence(words)."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired low first
    const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        out.append(value ^ (value >> 16))
    w0, w1, w2, w3 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    return w0 << 64 | w1, w2 << 64 | w3


class Stream:
    """numpy's `default_rng(entropy)` for `uniform` and `choice`."""

    def __init__(self, entropy: int | Sequence[int]):
        seed, stream = _seed_state(_words(entropy))
        # srandom_r: from state 0, one step, add the seed, one step
        self._inc = (stream << 1 | 1) & _MASK128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _MASK128
        self._high: int | None = None

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        return (word >> rot | word << (-rot & 63)) & _MASK64

    def _next32(self) -> int:
        if self._high is not None:
            word, self._high = self._high, None
            return word
        word = self._next64()
        self._high = word >> 32
        return word & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """A double in [low, high); a range past float range raises
        OverflowError, and high < low raises ValueError."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * ((self._next64() >> 11) * 2.0 ** -53)

    def choice(self, seq: Sequence):
        """One item of a non-empty sequence of at most 2**32 items."""
        n = len(seq)
        if n == 0:
            raise ValueError("cannot choose from an empty sequence")
        if n == 1:
            return seq[0]
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (_MASK32 - n + 1) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return seq[m >> 32]
