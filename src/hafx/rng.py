"""Seeded, labelled random streams.

Every random draw in the package goes through a SeededRng so that a run is
fully determined by (seed, stream label). Labels keep independent parts of
a run (init, data, dropout coins) from consuming each other's draws.
"""

import hashlib

import numpy as np


def _label_entropy(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class SeededRng:
    """numpy Generator keyed by (seed, label); same pair -> same sequence."""

    def __init__(self, seed: int, label: str = ""):
        self.seed = int(seed)
        self.label = label
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(_label_entropy(label),))
        )

    def child(self, label: str) -> "SeededRng":
        """Independent stream derived from the same seed."""
        return SeededRng(self.seed, f"{self.label}/{label}" if self.label else label)

    def normal(self, shape, std=1.0):
        return self._gen.normal(0.0, std, size=shape)

    def uniform(self, shape=None, low=0.0, high=1.0):
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)
