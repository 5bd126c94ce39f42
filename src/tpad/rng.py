"""The seed argument every randomized tpad entry point accepts."""

from __future__ import annotations

import random
from typing import Union

Rng = Union[int, random.Random, None]


def as_rng(seed: Rng) -> random.Random:
    """A generator passed in is used as is; anything else seeds a new one."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


_TOP_BIT = bytes(b >> 7 for b in range(256))  # a byte -> its bit 7


def random_bits(rng: random.Random, count: int) -> bytes:
    """count draws of rng.getrandbits(1), one byte (0 or 1) each, from one call.

    In CPython, getrandbits(1) is the top bit of one 32-bit Mersenne Twister
    output, and getrandbits(32 * count) places count such outputs lowest
    first; so bit 31 of each 32-bit word is the bit a draw of one gives, and
    the generator ends in the same state (tests/test_lanes.py pins this).
    """
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4].translate(_TOP_BIT)
