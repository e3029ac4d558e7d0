"""2-D discrete Fourier transform and its log-magnitude map.

Convention: negative exponent, no normalization on the forward transform,

    F(k, l) = sum_i sum_j f(i, j) * exp(-i 2 pi (k i / N + l j / N)),

so the DC entry F(0, 0) equals the plain pixel sum. The input is real, so
F(-k, -l) = conj F(k, l) and the columns l = 0 .. N//2 determine the rest.
``Spectrum`` stores only that half plane, in ``numpy.fft.rfft2``'s layout.
``fft2d`` evaluates it with ``scipy.fft``, rows then columns as ``rfft2``
does, zero-padding the input at the bottom and right to the smallest
enclosing power-of-two square; ``dft2d_direct`` evaluates the quartic-time
sum literally and exists to cross-check the fast path. When rows are
padded, the column pass runs over blocks of ``_BLOCK`` columns, so
``half_log_magnitude``, log(1 + |F|) over the half plane, is built without
ever holding the padded complex half plane; ``fft2d`` is the same loop,
keeping each complex block. ``centred`` is the one place the other half is
filled in: it lays any map over the half plane out on the full grid,
fft-shifted, and ``Spectrum.values`` is F's centred map shifted back.
``log_magnitude`` is a spectrum's centred log(1 + |F|) map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# columns per block of the padded column pass; a 1025² image's traced peak is 32.4 MB at
# 8 columns and 38.0 MB at 128, and narrower blocks make more calls
_BLOCK = 32


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


def _half_plane(matrix, dtype, kernel) -> np.ndarray:
    """``kernel`` of each column block of the half plane of a real matrix zero-padded to
    the power-of-two square, gathered into an N x (N//2 + 1) array of ``dtype``.

    The row pass reads only the unpadded rows. With no row padded, one column pass runs
    over all columns, in place. Otherwise blocks of ``_BLOCK`` columns are padded to N
    rows in one reused buffer, so the padded complex half plane is never held whole.
    """
    import scipy.fft  # here, not at module level: only image parsing pays for scipy
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n = 1 << (max(*m.shape, 1) - 1).bit_length()
    rows = scipy.fft.rfft(m, n=n, axis=1)
    h, cols = rows.shape
    if h == n:
        return kernel(scipy.fft.fft(rows, axis=0, overwrite_x=True))
    out = np.empty((n, cols), dtype)
    buf = np.empty(n * _BLOCK, rows.dtype)
    for start in range(0, cols, _BLOCK):
        stop = min(start + _BLOCK, cols)
        block = buf[: n * (stop - start)].reshape(n, -1)  # contiguous, as the one-pass input is
        block[:h], block[h:] = rows[:, start:stop], 0
        out[:, start:stop] = kernel(scipy.fft.fft(block, axis=0, overwrite_x=True))
    return out


def fft2d(matrix) -> Spectrum:
    """Fast transform of any real matrix, zero-padded to a power-of-two square."""
    return Spectrum(_half_plane(matrix, np.complex128, lambda block: block))


def _log1p_abs(values: np.ndarray) -> np.ndarray:
    """Element-wise log(1 + |F|) in a new array; log1p keeps zero bins finite."""
    mag = np.abs(values)
    return np.log1p(mag, out=mag)


def half_log_magnitude(matrix) -> np.ndarray:
    """log(1 + |F|) over the half plane of ``fft2d(matrix)``, laid out like its ``half``,
    with no complex half plane of a padded matrix held whole.

    The moments of the full map follow from this block with its
    ``mirrored_columns`` counted twice.
    """
    return _half_plane(matrix, np.float64, _log1p_abs)


def log_magnitude(spectrum: Spectrum) -> np.ndarray:
    """Element-wise log(1 + |F|) on the full grid, quadrant-swapped so DC sits at the center.

    Centering makes the map comparable across images regardless of where
    energy falls; the other half of the grid is filled from the mirrored
    bins, |F(-k, -l)| = |F(k, l)|.
    """
    return centred(_log1p_abs(spectrum.half))
