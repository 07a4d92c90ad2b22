"""Portable seeded randomness: splitmix64 seeding into an xoshiro256** stream.

Both generators follow their published reference algorithms on 64-bit
unsigned arithmetic, so identically-seeded streams reproduce across
platforms and implementations.  Suites derive one independent substream
per trial from (seed, row key, trial index) via :func:`derive_seed`;
:func:`substream_states` computes the states of any set of trials, each
lane with a base and a trial index of its own, in numpy ``uint64``, bit for
bit the same, as four lane arrays.  :meth:`Xoshiro256StarStar.next_u64` is
the one definition of a step: on int words it steps one stream, on lane
arrays every lane at once; :func:`unit` and :func:`below` turn a word, or
a lane array of words, into the draws of ``random`` and ``randint``.
"""

from __future__ import annotations

import math

import numpy as np

from .scalar import _shown

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi  # Box-Muller's angle factor, formed once
# Lanes a suite steps at once: the scalar rows draw their (row, trial) pairs
# a block of this many lanes at a time, and the operator rows derive their
# trial states a chunk of this many at a time, so memory stays flat for any
# trial count.  A request of 18 rows of 600 trials (10,800 lanes) is one block.
SUBSTREAM_CHUNK = 2 ** 14


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output word)."""
    return (state + _GOLDEN) & _MASK, _mix(state)


def _mix(z: int) -> int:
    # splitmix64 output finalizer applied to a raw word
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def derive_seed(seed: int, *parts) -> int:
    """Deterministically combine a seed with string/int parts into a 64-bit seed."""
    h = seed & _MASK
    for part in parts:
        key = part & _MASK if isinstance(part, int) else fnv1a64(str(part))
        h = _mix(h ^ key)
    return h


# numpy uint64 forms of the splitmix64 constants, made once: numpy scalars
# cost less per array operation than Python ints
_U64_GOLDEN, _U64_M1, _U64_M2 = (
    np.uint64(c) for c in (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_U64_30, _U64_27, _U64_31 = np.uint64(30), np.uint64(27), np.uint64(31)
# splitmix64 word i (i = 1..4) from a seed finalizes the seed plus i golden
# steps; one row per word, so all four come from one array pass
_U64_WORD_STEPS = np.array([[i * _GOLDEN & _MASK] for i in range(1, 5)], dtype=np.uint64)


def _finalize(z: np.ndarray) -> np.ndarray:
    # the splitmix64 output finalizer on a uint64 array; array arithmetic
    # wraps mod 2**64 exactly as the masked integer code does
    z = (z ^ (z >> _U64_30)) * _U64_M1
    z = (z ^ (z >> _U64_27)) * _U64_M2
    return z ^ (z >> _U64_31)


def substream_states(bases, trials) -> tuple:
    """The state (s0, s1, s2, s3) of ``Xoshiro256StarStar(derive_seed(base,
    t))`` for each lane's base and trial index t, as four uint64 lane arrays
    from one numpy pass: ``trials`` is a uint64 array, ``bases`` a uint64
    array of the same length or one int below 2**64 for every lane."""
    seeds = _finalize((trials ^ bases) + _U64_GOLDEN)  # derive_seed(base, t)
    words = _finalize(seeds + _U64_WORD_STEPS)  # row i: s_i of every lane
    words[0, ~words.any(axis=0)] = 1  # all-zero state is absorbing
    return tuple(words)


def unit(word):
    """The uniform double in [0, 1) of a word, or of each word of a lane
    array: its top 53 bits times 2**-53."""
    return (word >> 11) * 1.1102230246251565e-16


def below(word, n):
    """The integer in [0, n) of a word, or of each word of a lane array, by
    the multiply-shift reduction (word * n) >> 64.  From the word's 32-bit
    halves: exact for any int n >= 1, and no lane product leaves 64 bits
    while n < 2**32."""
    return ((word >> 32) * n + ((word & 0xFFFFFFFF) * n >> 32)) >> 32


class Xoshiro256StarStar:
    """xoshiro256** 1.0; state seeded by four successive splitmix64 words,
    or given as an (s0, s1, s2, s3) tuple: four ints, or four uint64 lane
    arrays from :func:`substream_states`, which ``next_u64``, ``random`` and
    ``randint`` step in place, every lane at once."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed):
        if isinstance(seed, tuple):
            self.s0, self.s1, self.s2, self.s3 = seed
            return
        state = seed & _MASK
        state, self.s0 = splitmix64(state)
        state, self.s1 = splitmix64(state)
        state, self.s2 = splitmix64(state)
        state, self.s3 = splitmix64(state)
        if not (self.s0 | self.s1 | self.s2 | self.s3):  # all-zero state is absorbing
            self.s0 = 1

    def next_u64(self):
        # a uint64 lane array meets only Python ints below 2**64 here, which
        # keep it uint64 under numpy 1.x's value-based casting and numpy 2's
        # weak scalars alike; its arithmetic wraps mod 2**64, as the mask does
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s1 * 5) & _MASK
        # rotl(x, 7) * 9 mod 2**64; the bits that x << 7 lifts past bit 63
        # add a multiple of 2**64, which the mask drops
        result = (((x << 7) | (x >> 57)) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        # s3 becomes rotl(s3, 45)
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & _MASK
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return unit(self.next_u64())

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def randint(self, n: int):
        """Integer in [0, n) via the multiply-shift reduction (word * n) >> 64;
        n >= 1, and below 2**32 for lanes."""
        # checked before a word is drawn; a plain int passes at the first test
        if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
            raise TypeError(f"randint needs an integer n, got {_shown(n)}")
        if n < 1:  # an int too long to print shows as its bit length
            raise ValueError(f"randint needs n >= 1, got {_shown(n)}")
        return below(self.next_u64(), n)

    def gauss_pair(self) -> tuple[float, float]:
        """Two independent standard normals via Box-Muller, from 1 - random()
        and random(); the two words are read straight from the stream."""
        u1 = 1.0 - unit(self.next_u64())  # (0, 1]
        theta = _TWO_PI * unit(self.next_u64())
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(theta), r * math.sin(theta)
