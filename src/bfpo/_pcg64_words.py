"""How numpy's ``Generator`` turns a PCG64 bit generator's raw 64-bit words
into values, for code that reads the words itself (``random_raw``) and must
make the values the generator's own calls would.

``integers(0, n)``, for 1 < n <= 2**32, takes a 32-bit half u of a word: the
low half of a fresh word, while the high half waits in the bit generator's
buffer (``has_uint32`` and ``uinteger`` in its state) for the next such draw.
By Lemire's method the value is ``(u * n) >> 32``, rejected, and another half
taken, when the low 32 bits of ``u * n`` fall below ``2**32 % n``.
``random()`` takes a whole word w and returns ``(w >> 11) * 2**-53``, and so
does ``uniform(a, b)`` before it scales that to ``a + (b - a) * r``; neither
touches the buffer.  Every function here works alike on Python ints and on
numpy uint64 arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

HALF_BITS = 32
HALF_MASK = 0xFFFF_FFFF


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
