"""2-D discrete Fourier transform and its log-magnitude map.

Convention: negative exponent, no normalization on the forward transform,

    F(k, l) = sum_i sum_j f(i, j) * exp(-i 2 pi (k i / N + l j / N)),

so the DC entry F(0, 0) equals the plain pixel sum. The input is real, so
F(-k, -l) = conj F(k, l) and the columns l = 0 .. N//2 determine the rest.
``Spectrum`` stores only that half plane, in ``numpy.fft.rfft2``'s layout.
``fft2d`` evaluates it with ``rfft2`` after zero-padding the input at the
bottom and right to the smallest enclosing power-of-two square;
``dft2d_direct`` evaluates the quartic-time sum literally and exists to
cross-check the fast path. ``half_log_magnitude`` gives log(1 + |F|) over
the half plane; ``log_magnitude`` lays it out as the centred full map,
filling the other half from |F(-k, -l)| = |F(k, l)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """Half plane of a real input's transform: ``half[k, l] = F(k, l)`` for
    0 <= l <= N//2, an N x (N//2 + 1) array (N a power of two for fft2d)."""

    half: np.ndarray

    @property
    def size(self) -> int:
        return self.half.shape[0]

    @property
    def mirrored(self) -> slice:
        """Half columns 1 .. N - N//2 - 1: each stands for itself and for the
        full-grid column N - l outside the half plane."""
        return slice(1, self.size - self.size // 2)

    @property
    def values(self) -> np.ndarray:
        """The full N x N grid, rebuilt by conjugate symmetry."""
        n = self.size
        # F(k, l) = conj F(-k mod n, n - l) for the columns l = N//2 + 1 .. n-1
        rest = np.conj(self.half[-np.arange(n) % n, self.mirrored][:, ::-1])
        return np.concatenate([self.half, rest], axis=1)

    def centred(self, half_map: np.ndarray) -> np.ndarray:
        """Lay a map of |F| over the half plane out on the full grid, quadrant-swapped
        so DC sits at the center.

        Entry (i, j) is half_map's bin ((i - h) mod n, (j - h) mod n) with
        h = n // 2; columns whose frequency lies outside the half plane are
        read from the mirrored bin (h - i, h - j), which holds the same |F|.
        """
        n = self.size
        h = n // 2
        first = 1 - n % 2  # even n: map column 0 holds the half's last column, l = h
        out = np.empty((n, n))
        # map columns h .. n-1 are half columns 0 .. n-h-1; rows roll by h
        out[h:, h:] = half_map[: n - h, : n - h]
        out[:h, h:] = half_map[n - h :, : n - h]
        if first:
            out[h:, 0] = half_map[:h, h]
            out[:h, 0] = half_map[h:, h]
        # map columns first .. h-1 are half columns h-first .. 1 at rows (h - i) mod n
        out[: h + 1, first:h] = half_map[h::-1, h - first : 0 : -1]
        out[h + 1 :, first:h] = half_map[:h:-1, h - first : 0 : -1]
        return out


def dft2d_direct(matrix) -> Spectrum:
    """Literal double-sum evaluation of the half plane of a square matrix. Oracle scale only."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("dft2d_direct expects a square matrix")
    n = m.shape[0]
    unit_roots = np.exp(-2j * np.pi * np.arange(n) / n)
    cols = n // 2 + 1
    values = np.empty((n, cols), dtype=np.complex128)
    for k in range(n):
        for l in range(cols):
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
    return Spectrum(np.fft.rfft2(m, s=(n, n)))


def half_log_magnitude(spectrum: Spectrum) -> np.ndarray:
    """Element-wise log(1 + |F|) over the stored half plane, laid out like ``spectrum.half``.

    log1p keeps zero bins finite. The moments of the full map follow from
    this block with the ``spectrum.mirrored`` columns counted twice.
    """
    mag = np.abs(spectrum.half)
    return np.log1p(mag, out=mag)


def log_magnitude(spectrum: Spectrum) -> np.ndarray:
    """Element-wise log(1 + |F|) on the full grid, quadrant-swapped so DC sits at the center.

    Centering makes the map comparable across images regardless of where
    energy falls; the other half of the grid is filled from the mirrored
    bins, |F(-k, -l)| = |F(k, l)|.
    """
    return spectrum.centred(half_log_magnitude(spectrum))
