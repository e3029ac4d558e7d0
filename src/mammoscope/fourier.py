"""2-D discrete Fourier transform and its log-magnitude map.

Convention: negative exponent, no normalization on the forward transform,

    F(k, l) = sum_i sum_j f(i, j) * exp(-i 2 pi (k i / N + l j / N)),

so the DC entry F(0, 0) equals the plain pixel sum. ``fft2d`` evaluates
this with ``numpy.fft.fft2`` after zero-padding the input at the bottom
and right to the smallest enclosing power-of-two square; ``dft2d_direct``
evaluates the quartic-time sum literally and exists to cross-check the
fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """Complex transform values on an N x N grid (N a power of two for fft2d)."""

    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.shape[0]


def dft2d_direct(matrix) -> Spectrum:
    """Literal double-sum evaluation over a square matrix. Oracle scale only."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("dft2d_direct expects a square matrix")
    n = m.shape[0]
    unit_roots = np.exp(-2j * np.pi * np.arange(n) / n)
    values = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            acc = 0.0 + 0.0j
            for i in range(n):
                for j in range(n):
                    acc += m[i, j] * unit_roots[(k * i + l * j) % n]
            values[k, l] = acc
    return Spectrum(values)


def _next_pow2(n: int) -> int:
    size = 1
    while size < n:
        size *= 2
    return size


def fft2d(matrix) -> Spectrum:
    """Fast transform of any real matrix, zero-padded to a power-of-two square."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n = _next_pow2(max(*m.shape, 1))
    return Spectrum(np.fft.fft2(m, s=(n, n)))


def log_magnitude(spectrum: Spectrum) -> np.ndarray:
    """Element-wise log(1 + |F|), quadrant-swapped so DC sits at the center.

    Centering makes the map comparable across images regardless of where
    energy falls; log1p keeps zero bins finite.
    """
    mag = np.log1p(np.abs(spectrum.values))
    n = spectrum.size
    return np.roll(mag, (n // 2, n // 2), axis=(0, 1))
