"""Seeded random-number generation.

One named generator for the whole library: Philox 4x64-10, a counter-based
bit generator, keyed by the 64-bit config seed.  The generator identity is
part of the external contract so that sampled artifacts reproduce across
platforms and releases, and so is the default sample count.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64-10"
DEFAULT_NSAMPLES = 100_000  # samples per Monte-Carlo run


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))
