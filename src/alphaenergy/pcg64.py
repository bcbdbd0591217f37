"""Seeded random draws without importing `numpy.random`.

`default_rng(seed)` returns a generator whose every draw equals the draw of
`numpy.random.default_rng(seed)`: numpy's SeedSequence hashing of the integer
seed, its PCG64 bit generator (a 128-bit LCG with XSL-RR output; M. E.
O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905), and its
`random`, `integers` and `permutation` algorithms on top.

A value drawn here costs about 0.6-0.9 us against about 0.01 us in numpy:
the two array draws, `below` (a G(n, p) draw as 0/1 bytes) and `shuffled`
(a pairing's stubs as a list), make the LCG step and the XSL-RR output
inline and make no array. Importing `numpy.random` costs 9-14 ms, as much
as about 16,000 values drawn here (the median of that ratio over 20 fresh
interpreters, each timing 2,000 `random` values and 50 permutations of 40
stubs, then the import; range 12,600-18,500). A small fuzz call makes a few
hundred. So a process draws its first BUDGET values in Python. The request
that would pass BUDGET and every later one go to numpy: a live generator
hands over its exact PCG64 state, and `default_rng` returns numpy's
generator. The stream is the same either way.
"""

from __future__ import annotations

import numpy as np

BUDGET = 16000  # values a process draws here before it imports numpy.random

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG's 128-bit LCG
_TO_DOUBLE = 1.0 / (1 << 53)

_requested = 0  # values requested from this module's generators in this process


def default_rng(seed):
    """A generator of `numpy.random.default_rng(seed)`'s stream: this module's
    for a non-negative integer seed while the process is within BUDGET,
    numpy's otherwise (numpy takes or rejects any other seed)."""
    if _requested >= BUDGET or not isinstance(seed, (int, np.integer)) or seed < 0:
        return np.random.default_rng(seed)
    return Generator(int(seed))


def _seed_state(seed: int) -> tuple[int, int]:
    """(state, inc) of `PCG64(SeedSequence(seed))`: the seed's uint32 words,
    low word first, hashed into a pool of four, expanded to four uint64 words
    (initstate high and low, initseq high and low), then PCG's srandom."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    s = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (s[2] << 64 | s[3]) << 1 & _M128 | 1
    return ((inc + (s[0] << 64 | s[1])) * _MULT + inc) & _M128, inc


class Generator:
    """numpy's `Generator(PCG64(seed))` for the scalar draws the package
    makes; `below` and `shuffled` make its array draws.

    `_half` is the upper half of a 64-bit output kept for the next 32-bit
    draw (numpy's `has_uint32`/`uinteger`); `_numpy` is the twin that takes
    the stream over once the process is past BUDGET."""

    def __init__(self, seed: int):
        self._state, self._inc = _seed_state(seed)
        self._half = None
        self._numpy = None

    def _over(self, k: int) -> bool:
        """Count k requested values; True, with the stream handed to numpy,
        once the process is past BUDGET."""
        global _requested
        if self._numpy is None:
            _requested += k
            if _requested <= BUDGET:
                return False
            self._numpy = np.random.Generator(np.random.PCG64(0))
            self._numpy.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": int(self._half is not None),
                "uinteger": self._half or 0,
            }
        return True

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit output."""
        if self._over(1):
            return self._numpy.random()
        return (self._next64() >> 11) * _TO_DOUBLE

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high) by Lemire's multiply-and-reject: from 32-bit
        draws when the span fits in 32 bits, else from 64-bit draws."""
        low, high = int(low), int(high)
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(f"integers needs -2**63 <= low < high <= 2**63, got [{low}, {high})")
        if self._over(1):
            return int(self._numpy.integers(low, high))
        span = high - low
        if span == 1:  # numpy draws nothing for a one-value span
            return low
        bits, draw = (32, self._next32) if span <= 1 << 32 else (64, self._next64)
        mask, threshold = (1 << bits) - 1, (1 << bits) % span
        m = draw() * span
        while m & mask < threshold:
            m = draw() * span
        return low + (m >> bits)


def _numpy_twin(rng, k: int):
    """None when this module draws k values for `rng`, a generator
    `default_rng` gave; otherwise the numpy generator that draws them."""
    if isinstance(rng, Generator):
        return rng._numpy if rng._over(k) else None
    return rng


def below(rng, p: float, size: int) -> bytes:
    """`(rng.random(size) < p).tobytes()`: whether each of `size` float draws
    lies below p, as 0/1 bytes."""
    twin = _numpy_twin(rng, size)
    if twin is not None:
        return (twin.random(size) < p).tobytes()
    # _next64 inlined: the LCG step, then XSL-RR's top 53 bits.
    state, inc, p, out = rng._state, rng._inc, float(p), bytearray(size)
    for i in range(size):
        state = (state * _MULT + inc) & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        out[i] = (((x >> r | x << (64 - r)) & _M64) >> 11) * _TO_DOUBLE < p
    rng._state = state
    return bytes(out)


def shuffled(rng, items: list[int]) -> list[int]:
    """`rng.permutation(items).tolist()`: a shuffled copy, Fisher-Yates from
    the top, each index j in [0, i] a 32-bit draw masked to i's bit length,
    redrawn while above i."""
    twin = _numpy_twin(rng, len(items))
    if twin is not None:
        return twin.permutation(items).tolist()
    # _next32 inlined: a pending upper half first, else one LCG step and its
    # XSL-RR output, whose upper half is kept pending.
    arr, state, inc, half = list(items), rng._state, rng._inc, rng._half
    for i in range(len(arr) - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if half is None:
                state = (state * _MULT + inc) & _M128
                y, r = (state >> 64 ^ state) & _M64, state >> 122
                y = (y >> r | y << (64 - r)) & _M64
                j, half = y & mask, y >> 32
            else:
                j, half = half & mask, None
            if j <= i:
                break
        arr[i], arr[j] = arr[j], arr[i]
    rng._state, rng._half = state, half
    return arr
