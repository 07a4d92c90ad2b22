"""Portable seeded randomness: splitmix64 seeding into an xoshiro256** stream.

Both generators follow their published reference algorithms on 64-bit
unsigned arithmetic, so identically-seeded streams reproduce across
platforms and implementations.  Suites derive one independent substream
per trial from (seed, row key, trial index) via :func:`derive_seed`;
:func:`substream_states` computes a row's trial states in numpy ``uint64``,
bit for bit the same.  With a read-ahead depth k it also runs each trial's
first k xoshiro256** steps in that pass, all trials in lockstep, and the
generator built from its tuple serves those words before stepping itself.
:meth:`Xoshiro256StarStar.next_u64` stays the definition of a step; the
lockstep pass must give the same words.
"""

from __future__ import annotations

import math

import numpy as np

from .scalar import _shown

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi  # Box-Muller's angle factor, formed once
# Trials per numpy pass of substream_states: memory stays flat for any count.
SUBSTREAM_CHUNK = 1024


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


# numpy uint64 forms of the xoshiro256** multipliers and shifts: with numpy
# 1.x a uint64 array mixed with a Python int is promoted to float64
_U64_5, _U64_9 = np.uint64(5), np.uint64(9)
_U64_7, _U64_57 = np.uint64(7), np.uint64(57)
_U64_17, _U64_45, _U64_19 = np.uint64(17), np.uint64(45), np.uint64(19)


def _step(state: np.ndarray) -> np.ndarray:
    """One Xoshiro256StarStar.next_u64 on every column of a (4, trials)
    uint64 state, in place; returns the output word of every trial."""
    s0, s1, s2, s3 = state  # row views: the updates below write to state
    x = s1 * _U64_5
    result = ((x << _U64_7) | (x >> _U64_57)) * _U64_9
    t = s1 << _U64_17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[...] = (s3 << _U64_45) | (s3 >> _U64_19)
    return result


def substream_states(base: int, count: int, ahead: int = 0):
    """Yield, for t in range(count), the (s0, s1, s2, s3) state of
    ``Xoshiro256StarStar(derive_seed(base, t))``, computed in numpy
    SUBSTREAM_CHUNK trials at a time.

    With ``ahead`` = k > 0, each tuple is instead the state after that
    generator's first k outputs, followed by those k outputs in order;
    ``Xoshiro256StarStar`` built from it draws the same stream."""
    base = np.uint64(base & _MASK)
    for start in range(0, count, SUBSTREAM_CHUNK):
        trials = np.arange(start, min(count, start + SUBSTREAM_CHUNK), dtype=np.uint64)
        seeds = _finalize((trials ^ base) + _U64_GOLDEN)  # derive_seed(base, t)
        words = _finalize(seeds + _U64_WORD_STEPS)  # row i: s_i of every trial
        words[0, ~words.any(axis=0)] = 1  # all-zero state is absorbing
        if ahead:
            words = np.vstack([words] + [_step(words) for _ in range(ahead)])
        yield from zip(*words.tolist())


class Xoshiro256StarStar:
    """xoshiro256** 1.0; state seeded by four successive splitmix64 words,
    or given as an (s0, s1, s2, s3, *read_ahead) tuple from
    :func:`substream_states`, whose read-ahead words are drawn first."""

    __slots__ = ("s0", "s1", "s2", "s3", "_ahead")

    def __init__(self, seed):
        if isinstance(seed, tuple):
            self.s0, self.s1, self.s2, self.s3, *ahead = seed
            ahead.reverse()  # next_u64 pops from the end
            self._ahead = ahead
            return
        self._ahead = []
        state = seed & _MASK
        state, self.s0 = splitmix64(state)
        state, self.s1 = splitmix64(state)
        state, self.s2 = splitmix64(state)
        state, self.s3 = splitmix64(state)
        if not (self.s0 | self.s1 | self.s2 | self.s3):  # all-zero state is absorbing
            self.s0 = 1

    def next_u64(self) -> int:
        if self._ahead:
            return self._ahead.pop()
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
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def randint(self, n: int) -> int:
        """Integer in [0, n) via the multiply-shift reduction; n >= 1."""
        # checked before a word is drawn; a plain int passes at the first test
        if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
            raise TypeError(f"randint needs an integer n, got {_shown(n)}")
        if n < 1:  # an int too long to print shows as its bit length
            raise ValueError(f"randint needs n >= 1, got {_shown(n)}")
        return (self.next_u64() * n) >> 64

    def gauss_pair(self) -> tuple[float, float]:
        """Two independent standard normals via Box-Muller, from 1 - random()
        and random(); the two words are read straight from the stream."""
        u1 = 1.0 - (self.next_u64() >> 11) * 1.1102230246251565e-16  # (0, 1]
        theta = _TWO_PI * ((self.next_u64() >> 11) * 1.1102230246251565e-16)
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(theta), r * math.sin(theta)
