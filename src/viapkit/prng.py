"""Seeded random streams: NumPy's SeedSequence and PCG64, bit for bit, in Python.

Every seeded draw in viapkit comes from here. The streams are the published
algorithms (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", HMC-CS-2014-0905,
2014; NumPy's SeedSequence entropy mixing), whose bits NumPy's RNG policy
(NEP 19) keeps fixed across releases. The draws built on them (uniform,
integers, permutation) follow NumPy's Generator methods, so every output
byte is what NumPy's Generator gave for the same seed, while the program
never loads NumPy's random package (about 6 MiB of resident memory).

Only what the pipeline uses is here: generate_state, and a PCG64 with
uniform, scalar integers and permutation.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash and mix constants (pool of 4 words of 32 bits)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """Entropy as 32-bit words: an int little-endian (0 is [0]), a list concatenated."""
    if isinstance(entropy, (list, tuple)):
        return [w for part in entropy for w in _words(part)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError(f"seed entropy must be a non-negative integer; got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _pool(entropy) -> list[int]:
    """SeedSequence's mixed entropy pool for entropy (an int or a list of them)."""
    words = _words(entropy)
    h = _INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for s in range(_POOL_SIZE):
        for d in range(_POOL_SIZE):
            if s != d:
                pool[d] = _mix(pool[d], hashmix(pool[s]))
    for w in words[_POOL_SIZE:]:
        for d in range(_POOL_SIZE):
            pool[d] = _mix(pool[d], hashmix(w))
    return pool


def generate_state(entropy, n_words: int) -> list[int]:
    """n_words 32-bit words of SeedSequence(entropy).generate_state, as ints."""
    pool = _pool(entropy)
    h = _INIT_B
    out = []
    for i in range(n_words):
        v = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        v = v * h & _MASK32
        out.append(v ^ v >> 16)
    return out


class PCG64:
    """PCG64 (XSL-RR 128/64) seeded from SeedSequence(entropy), with Generator's draws.

    entropy is a non-negative int or a list of them, as SeedSequence takes it.
    """

    def __init__(self, entropy):
        w = generate_state(entropy, 8)
        # four little-endian u64s: the seed's high and low halves, then the stream's
        s_hi, s_lo, q_hi, q_lo = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        seed, initseq = s_hi << 64 | s_lo, q_hi << 64 | q_lo
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (self._inc + seed) * _PCG_MULT + self._inc & _MASK128
        # the high half of a 64-bit draw, kept for the next 32-bit draw
        self._spare32 = None

    def _next64(self, n: int) -> list[int]:
        """The next n 64-bit outputs: step the state, then XSL-RR of the new state."""
        s, inc = self._state, self._inc
        out = [0] * n
        for i in range(n):
            s = (s * _PCG_MULT + inc) & _MASK128
            x = (s >> 64) ^ (s & _MASK64)
            r = s >> 122
            out[i] = (x >> r | x << (64 - r)) & _MASK64
        self._state = s
        return out

    def _next32(self) -> int:
        """The low half of a 64-bit draw, or the high half that the last one left."""
        if self._spare32 is not None:
            x, self._spare32 = self._spare32, None
            return x
        (x,) = self._next64(1)
        self._spare32 = x >> 32
        return x & _MASK32

    def uniform(self, low: float, high: float, size=None):
        """U[low, high): a float, or a float64 array of shape size."""
        low, high = float(low), float(high)
        if size is None:
            (x,) = self._next64(1)
            return low + (high - low) * ((x >> 11) * 2.0**-53)
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        x = np.array(self._next64(math.prod(shape)), dtype=np.uint64)
        unit = (x >> 11).astype(np.float64) * 2.0**-53
        return low + (high - low) * unit.reshape(shape)

    def integers(self, low: int, high: int) -> int:
        """One integer uniform on [low, high), by Lemire's method on 32-bit draws."""
        span = high - low - 1
        if span < 0:
            raise ValueError(f"integers needs low < high; got [{low}, {high})")
        if span > _MASK32:
            raise ValueError("integers draws from ranges of at most 2**32 values")
        if span == 0:  # one value: no draw
            return low
        excl = span + 1
        threshold = (_MASK32 - span) % excl  # 2**32 mod excl
        m = self._next32() * excl
        while m & _MASK32 < threshold:
            m = self._next32() * excl
        return low + (m >> 32)

    def permutation(self, n: int) -> np.ndarray:
        """A shuffled arange(n): Fisher-Yates from the last index down."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
