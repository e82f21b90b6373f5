"""Seeded random-number utilities.

All randomness in the library flows through :class:`SeededRNG` so experiments
are reproducible from a single integer seed.  Child generators are derived
deterministically from the parent seed and a string label, which keeps the
streams used by (for example) the network latency model and the workload
generator independent of each other: adding draws to one does not perturb the
other.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRNG:
    """A labelled, reproducible random number generator.

    Example:
        >>> rng = SeededRNG(seed=42)
        >>> a = rng.child("latency").uniform(0, 1)
        >>> b = SeededRNG(seed=42).child("latency").uniform(0, 1)
        >>> a == b
        True
    """

    def __init__(self, seed: int = 0, *, label: str = "root") -> None:
        self._seed = int(seed)
        self._label = label
        self._random = random.Random(self._derive(self._seed, label))

    @property
    def seed(self) -> int:
        """Seed this generator (or its root ancestor) was created with."""
        return self._seed

    @property
    def label(self) -> str:
        """Label identifying this stream."""
        return self._label

    def child(self, label: str) -> "SeededRNG":
        """Create an independent stream derived from this seed and ``label``."""
        return SeededRNG(self._seed, label=f"{self._label}/{label}")

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (``mean > 0``)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def randint(self, low: int, high: int) -> int:
        """Integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly random element of a non-empty sequence."""
        return self._random.choice(items)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    @staticmethod
    def _derive(seed: int, label: str) -> int:
        digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
