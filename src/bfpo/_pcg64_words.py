"""How numpy seeds a PCG64 generator and turns its raw 64-bit words into
values, for code that makes the states itself or reads the words itself
(``random_raw``) and must match what ``default_rng`` and the generator's own
calls would give.

``default_rng(seed)`` builds ``PCG64(SeedSequence(seed))``. SeedSequence
hashes the seed's 32-bit words into a 4-word pool and expands it into 4
uint64 words (numpy's ``bit_generator.pyx``), which PCG64 turns into its
128-bit state and increment (``pcg64_set_seed``). :func:`seed_words` runs the
hash as array operations over many seeds at once, and :func:`pcg64_states`
makes each row's ``bit_generator.state``.

``integers(0, n)``, for 1 < n <= 2**32, takes a 32-bit half u of a word: the
low half of a fresh word, while the high half waits in the bit generator's
buffer (``has_uint32`` and ``uinteger`` in its state) for the next such draw.
By Lemire's method the value is ``(u * n) >> 32``, rejected, and another half
taken, when the low 32 bits of ``u * n`` fall below ``2**32 % n``.
``random()`` takes a whole word w and returns ``(w >> 11) * 2**-53``, and so
does ``uniform(a, b)`` before it scales that to ``a + (b - a) * r``; neither
touches the buffer.  The word functions work alike on Python ints and on
numpy uint64 arrays.  Code that reads many halves at once views the words as
native-order uint32 pairs, where a word's low half is element
:data:`LOW_HALF` of its pair.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError

HALF_BITS = 32
HALF_MASK = 0xFFFF_FFFF
LOW_HALF = 0 if sys.byteorder == "little" else 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def seed_words(seeds: Sequence[int] | np.ndarray, offset: int = 0) -> np.ndarray:
    """Row i is ``SeedSequence(seeds[i] + offset).generate_state(4, np.uint64)``,
    computed for all the seeds at once with uint32 array arithmetic."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u" and seeds.itemsize <= 4:
        seeds = seeds.astype(np.uint64) + offset  # a check's generate_state words
    else:
        seeds = [operator.index(s) + offset for s in seeds]
        if not all(0 <= s < 1 << 64 for s in seeds):
            raise InputError(f"seeds must lie in [0, 2**64), got {min(seeds)}..{max(seeds)}")
        seeds = np.array(seeds, dtype=np.uint64)
    const = 0x43B0_D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * 0x931E_8875 & HALF_MASK
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(0xCA01_F9DD) * x - np.uint32(0x4973_F715) * y
        out ^= out >> np.uint32(16)
        return out

    # A seed below 2**64 is at most two words; the pool hashes zeros past them.
    low, high = (seeds & HALF_MASK).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = 0x8B51_F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * 0x58F3_8DED & HALF_MASK
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        out.append(value.astype(np.uint64))
    return np.stack([out[i] | out[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=1)


def pcg64_states(words: np.ndarray) -> Iterator[dict]:
    """The ``bit_generator.state`` PCG64 takes from each row of
    :func:`seed_words`, made as it is read: state 0 and increment
    2 * seq + 1, one step, the initial state added, one more step (mod
    2**128)."""
    for row in words:
        state_high, state_low, seq_high, seq_low = row.tolist()
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _M128
        state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _M128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def halves(word):
    """A word's (low, high) 32-bit halves, in the order ``integers`` takes them."""
    return word & HALF_MASK, word >> HALF_BITS


def lemire(half, n):
    """``integers(0, n)`` from one half: the value and whether it is rejected."""
    product = half * n
    rejected = (product & HALF_MASK) < (1 << HALF_BITS) % n
    return product >> HALF_BITS, rejected


def unit(word):
    """``random()`` from one word."""
    return (word >> 11) * 2.0**-53


def unit_threshold(p: float) -> int:
    """The least word w with ``unit(w) >= p``, for p in [0, 1]: ``unit(w) <
    p`` exactly when ``w < unit_threshold(p)``, as ``unit(w)`` is an integer
    ``w >> 11`` times 2**-53 and ``p * 2**53`` is exact.  It is 2**64 at
    p = 1, above every word."""
    return math.ceil(p * 2**53) << 11


class Reader:
    """A PCG64 generator's ``integers(0, n)`` and ``uniform(a, b)`` draws, one
    value at a time from its raw words: the same values, read from the same
    stream, as the generator's own calls, at about 0.3 µs a word against
    2.4 µs for a scalar ``integers`` call and 8 µs for a sized one.

    The generator's buffered half is read once, carried here, and written
    back by :meth:`close`.  In between, the generator's own calls that take
    whole words (``normal`` among them) read its stream where these draws
    leave it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise InputError("raw words are decoded only from a PCG64 generator")
        state = rng.bit_generator.state
        self.rng, self.raw = rng, rng.bit_generator.random_raw
        self.buffered, self.half = state["has_uint32"], state["uinteger"]

    def below(self, n: int) -> int:
        """``integers(0, n)`` for 1 < n <= 2**32."""
        while True:
            if self.buffered:
                self.buffered, u = 0, self.half
            else:
                (u, self.half), self.buffered = halves(self.raw()), 1
            value, rejected = lemire(u, n)
            if not rejected:
                return value

    def uniform(self, low: float, high: float) -> float:
        """``uniform(low, high)``."""
        return low + (high - low) * unit(self.raw())

    def close(self) -> None:
        """Hand the carried half back to the generator's buffer."""
        bit_generator = self.rng.bit_generator
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = self.buffered, self.half
        bit_generator.state = state
