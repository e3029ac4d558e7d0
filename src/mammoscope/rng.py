"""Deterministic random numbers for the phantom generator and CV splitter.

Reproducibility of every generated artifact, byte for byte and across
implementations, matters more here than statistical sophistication, so
this is a fixed 64-bit linear congruential generator rather than a
platform RNG:

    state <- (state * 6364136223846793005 + 1442695040888963407) mod 2**64

Uniform doubles take the top 53 bits of the state. Gaussian draws apply
the Box-Muller transform to consecutive uniform pairs, with u1 mapped
into (0, 1] so the logarithm is always finite.
"""

from __future__ import annotations

import numpy as np

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407

_MASK = (1 << 64) - 1
_BLOCK = 4096


def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    # state_{k+1 steps} = A[k] * state + C[k]  (mod 2**64, as uint64 wraps), where
    # A[k] = M**(k+1) and C[k] = I * (1 + M + ... + M**k)
    a = np.cumprod(np.full(n, MULTIPLIER, dtype=np.uint64))
    return a, INCREMENT * np.cumsum(np.insert(a[:-1], 0, 1))


_JUMP_A, _JUMP_C = _jump_tables(_BLOCK)


class Rng:
    """Seeded LCG stream with uniform, integer, shuffle and Gaussian draws."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (int(self._raw_block(1)[0]) >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Uses plain modulo; fine at these ranges."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return int(self._raw_block(1)[0]) % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: swap i with randrange(i + 1) for i = n-1 .. 1.

        Every draw is taken in one block first; only the swaps run in order.
        """
        n = len(items)
        picks = self._raw_block(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]

    def _raw_block(self, n: int) -> np.ndarray:
        """The next n raw states as uint64, advancing the stream."""
        out = np.empty(n, dtype=np.uint64)
        filled = 0
        while filled < n:
            take = min(_BLOCK, n - filled)
            chunk = _JUMP_A[:take] * np.uint64(self.state) + _JUMP_C[:take]
            out[filled : filled + take] = chunk
            self.state = int(chunk[-1])
            filled += take
        return out

    def normals(self, n: int) -> np.ndarray:
        """n standard Gaussian draws via Box-Muller.

        Each uniform pair (u1, u2) yields the pair
        (r*cos(2*pi*u2), r*sin(2*pi*u2)) with r = sqrt(-2*ln(u1));
        an odd n discards the trailing sine twin.
        """
        if n <= 0:
            return np.empty(0)
        pairs = (n + 1) // 2
        raw = self._raw_block(2 * pairs)
        hi = (raw >> np.uint64(11)).astype(np.float64)
        u1 = (hi[0::2] + 1.0) * 2.0**-53  # (0, 1]
        u2 = hi[1::2] * 2.0**-53  # [0, 1)
        r = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(angle)
        out[1::2] = r * np.sin(angle)
        return out[:n]
