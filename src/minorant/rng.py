"""The seeded 64-bit generator behind instance generation and the sampled
domination check.

SplitMix64 with the usual published constants: the k-th output of a
generator in state s mixes s + k * GAMMA (mod 2^64), so a block of n draws
is one pass of numpy ``uint64`` array arithmetic, bit-identical to n scalar
draws.  Only array operations are used on ``uint64`` values: they wrap
modulo 2^64 silently, where numpy scalar arithmetic warns on overflow.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Splitmix-style 64-bit mixer; deterministic and platform independent."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (modulo bias is irrelevant
        at the tiny ranges used here)."""
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform_vector(self, n: int, lo: float, hi: float) -> np.ndarray:
        """The next n values of `uniform(lo, hi)`, drawn in one array pass."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GAMMA) & _MASK
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_matrix(self, n: int, m: int, lo: float, hi: float) -> np.ndarray:
        return self.uniform_vector(n * m, lo, hi).reshape(n, m)
