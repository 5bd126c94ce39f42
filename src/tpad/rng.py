"""The seed argument every randomized tpad entry point accepts."""

from __future__ import annotations

import random
from typing import Union

Rng = Union[int, random.Random, None]


def as_rng(seed: Rng) -> random.Random:
    """A generator passed in is used as is; anything else seeds a new one."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)
