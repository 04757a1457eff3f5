"""Seeded random-number-generator helpers.

Every stochastic component of the simulator takes an explicit
``numpy.random.Generator`` so that experiments are reproducible end-to-end
from a single integer seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["make_rng", "derive_rng"]

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can thread one generator through
    a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(seed: RngLike, *keys: int) -> np.random.Generator:
    """Derive a deterministic child generator from a seed and integer keys.

    Used by the temporal-variation models so that the drift realised at a
    given time stamp does not depend on how many other time stamps were
    sampled before it.
    """
    if isinstance(seed, np.random.Generator):
        # Generators cannot be re-keyed deterministically; draw a seed once.
        base = int(seed.integers(0, 2**31 - 1))
    elif seed is None:
        base = 0
    else:
        base = int(seed)
    mixed = base & 0xFFFFFFFFFFFFFFFF
    for key in keys:
        mixed = (mixed * 6364136223846793005 + int(key) + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(mixed)
