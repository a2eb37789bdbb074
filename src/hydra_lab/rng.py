"""Seeded random streams.

Every source of randomness in the lab flows from one run seed through
named substreams, so that two runs differing only in (say) an ablation
flag consume identical data and identical initializations.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for (seed, stream-name)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))]))

