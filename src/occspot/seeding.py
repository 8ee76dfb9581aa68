"""Named, reproducible RNG sub-streams derived from one root seed.

Every random decision in the pipeline (scene layout, augmentation draws,
parameter init, batch order) pulls its generator from here so that a single
root seed pins the whole run, and independent stages stay independent of
each other's draw counts.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["MAX_SEED", "substream", "subseed"]

#: the largest root seed: :func:`subseed` takes seeds modulo 2**64, so a
#: seed outside 0..MAX_SEED would alias one inside
MAX_SEED = 2**64 - 1


def subseed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for the sub-stream `name`."""
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return (int(root_seed) ^ int.from_bytes(digest, "little")) & 0xFFFFFFFFFFFFFFFF


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Generator for the named sub-stream of `root_seed`.

    The mapping is platform-independent: blake2s over the name, xor'd into
    the root seed, feeding a fresh PCG64.
    """
    return np.random.default_rng(subseed(root_seed, name))
