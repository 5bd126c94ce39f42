"""Lane ints: bit j of every value belongs to lane j of a bit-parallel run."""

from __future__ import annotations

from typing import Iterator, Sequence


def lanes_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def pack_lanes(rows: Sequence[Sequence[int]]) -> list[int]:
    """Transpose per-lane bit vectors: bit j of result[i] is rows[j][i].

    Rows are equally long sequences of 0/1 ints (bytes, as random_bits
    draws them, need no copy).
    """
    width = len(rows[0])
    # every row in one buffer, lane 0 last: column i, read as a binary numeral
    flat = b"".join(map(bytes, reversed(rows))).translate(_ASCII_BITS)
    return [int(flat[i::width], 2) for i in range(width)]


def select(lanes: int, new: Sequence[int], old: Sequence[int]) -> tuple[int, ...]:
    """new in `lanes`, old in every other lane, value by value."""
    return tuple((a & lanes) | (b & ~lanes) for a, b in zip(new, old))
