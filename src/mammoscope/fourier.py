"""2-D discrete Fourier transform and its log-magnitude map.

Convention: negative exponent, no normalization on the forward transform,

    F(k, l) = sum_i sum_j f(i, j) * exp(-i 2 pi (k i / N + l j / N)),

so the DC entry F(0, 0) equals the plain pixel sum. The input is real, so
F(-k, -l) = conj F(k, l) and the columns l = 0 .. N//2 determine the rest.
``Spectrum`` stores only that half plane, in ``numpy.fft.rfft2``'s layout.
``fft2d`` evaluates it with ``scipy.fft``, rows then columns as ``rfft2``
does, zero-padding the input at the bottom and right to the smallest
enclosing power-of-two square; ``dft2d_direct`` evaluates the quartic-time
sum literally and exists to cross-check the fast path. ``centred`` is the
one place the other half is filled in: it lays any map over the half plane
out on the full grid, fft-shifted, and ``Spectrum.values`` is F's centred
map shifted back. ``half_log_magnitude`` gives log(1 + |F|) over the half
plane; ``log_magnitude`` is its centred full map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def mirrored_columns(n: int) -> slice:
    """Columns 1 .. N - N//2 - 1 of an N-row half plane: each stands for itself and
    for the full-grid column N - l outside the half plane."""
    return slice(1, n - n // 2)


def centred(half_map: np.ndarray) -> np.ndarray:
    """A map over the half plane on the full N x N grid, fft-shifted so DC sits at the
    center, copied block by block into one array. The columns l > N//2 read
    F(k, l) = conj F(-k mod N, N - l); np.conj copies a real map as is."""
    n = len(half_map)
    s = n // 2  # the shift: entry (k, l) lands at ((k + s) mod N, (l + s) mod N)
    out = np.empty((n, n), dtype=half_map.dtype)
    lo = 2 * s - n + 1  # 1 for even N, whose Nyquist column N/2 lands in column 0
    for dst, src in ((out[:, s:], half_map[:, : n - s]), (out[:, :lo], half_map[:, n - s :])):
        dst[s:], dst[:s] = src[: n - s], src[n - s :]
    mirror = half_map[:, n - s - 1 : 0 : -1]  # full-grid columns N//2 + 1 .. N - 1, conjugated
    np.conj(mirror[s::-1], out=out[: s + 1, lo:s])  # rows k = -s .. 0 read half row -k
    np.conj(mirror[:s:-1], out=out[s + 1 :, lo:s])  # rows k = 1 .. N-s-1 read row N - k
    return out


@dataclass(frozen=True)
class Spectrum:
    """Half plane of a real input's transform: ``half[k, l] = F(k, l)`` for
    0 <= l <= N//2, an N x (N//2 + 1) array (N a power of two for fft2d)."""

    half: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """The full N x N grid, rebuilt by conjugate symmetry."""
        return np.fft.ifftshift(centred(self.half))


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


def fft2d(matrix) -> Spectrum:
    """Fast transform of any real matrix, zero-padded to a power-of-two square."""
    import scipy.fft  # here, not at module level: only image parsing pays for scipy
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n = 1 << (max(*m.shape, 1) - 1).bit_length()
    # the row pass reads only the unpadded rows; the column pass pads them to N
    rows = scipy.fft.rfft(m, n=n, axis=1)
    return Spectrum(scipy.fft.fft(rows, n=n, axis=0, overwrite_x=True))


def half_log_magnitude(spectrum: Spectrum) -> np.ndarray:
    """Element-wise log(1 + |F|) over the stored half plane, laid out like ``spectrum.half``.

    log1p keeps zero bins finite. The moments of the full map follow from
    this block with its ``mirrored_columns`` counted twice.
    """
    mag = np.abs(spectrum.half)
    return np.log1p(mag, out=mag)


def log_magnitude(spectrum: Spectrum) -> np.ndarray:
    """Element-wise log(1 + |F|) on the full grid, quadrant-swapped so DC sits at the center.

    Centering makes the map comparable across images regardless of where
    energy falls; the other half of the grid is filled from the mirrored
    bins, |F(-k, -l)| = |F(k, l)|.
    """
    return centred(half_log_magnitude(spectrum))
