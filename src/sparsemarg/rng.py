"""Seeding convention for every stochastic operation in the package.

All randomness flows through counter-based Philox generators constructed
from explicit integer seeds, so runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Generator for an explicit seed; equal seeds give equal streams."""
    return np.random.Generator(np.random.Philox(seed))

