"""Separable 2-D discrete wavelet transform on the dyadic grid.

Analysis anchors the filter at sample 2k under periodic extension:

    approx[k] = sum_j low[j]  * s[(2k + j) mod n]
    detail[k] = sum_j high[j] * s[(2k + j) mod n]

Two-dimensional levels run along rows (x) first, then columns (y), and
split into the four quadrant bands LL, HL, LH, HH, where H in the first
position means highpass along x. Filters are orthonormal, so the inverse
transform is the exact adjoint and reconstruction is exact up to float
rounding. Odd extents are edge-replicated to even before each level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MammoscopeError

FILTER_NAMES = ("haar", "daub4")

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

DETAIL_BANDS = ("HL", "LH", "HH")


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal analysis pair: sum(low) = sqrt(2), sum(low^2) = 1,
    high[k] = (-1)^k * low[L-1-k]."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __len__(self) -> int:
        return len(self.lowpass)


def _quadrature_mirror(lowpass: np.ndarray) -> np.ndarray:
    return lowpass[::-1] * (-1.0) ** np.arange(len(lowpass))


def get_filter(name: str) -> WaveletFilter:
    """Build a named filter from closed-form tap values."""
    if name == "haar":
        low = np.array([1.0, 1.0]) / _SQRT2
    elif name == "daub4":
        low = np.array(
            [1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]
        ) / (4.0 * _SQRT2)
    else:
        raise ValueError(f"unknown wavelet filter {name!r}; expected one of {FILTER_NAMES}")
    return WaveletFilter(name, low, _quadrature_mirror(low))


@dataclass(frozen=True)
class WaveletDecomposition:
    """Detail bands per level plus the final approximation band; ``details`` is
    empty when only the approximation was computed."""

    filter: WaveletFilter
    levels: int
    details: tuple[dict[str, np.ndarray], ...]
    approx: np.ndarray


def _analyze(values: np.ndarray, taps: tuple[np.ndarray, ...], axis: int) -> tuple[np.ndarray, ...]:
    """Filter along ``axis`` and keep every second sample: one output band per tap array."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[axis]
    length = len(taps[0])
    if n % 2:
        raise MammoscopeError(f"extent {n} is odd; pad to even first")
    if n < length:
        raise MammoscopeError(f"extent {n} shorter than filter length {length}")
    # periodic extension along axis: taps j, j+2, .. j+n-2 hold s[(2k + j) mod n] for every k
    ext = np.concatenate([x, np.take(x, range(length - 1), axis=axis)], axis=axis)
    shape = list(x.shape)
    shape[axis] = n // 2
    bands = tuple(np.zeros(shape) for _ in taps)
    lead = (slice(None),) * axis
    for j in range(length):
        tap = ext[lead + (slice(j, j + n, 2),)]
        for band, coeffs in zip(bands, taps):
            band += coeffs[j] * tap
    return bands


def _synthesize(
    approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter, axis: int
) -> np.ndarray:
    a = np.moveaxis(np.asarray(approx, dtype=np.float64), axis, -1)
    d = np.moveaxis(np.asarray(detail, dtype=np.float64), axis, -1)
    half = a.shape[-1]
    n = 2 * half
    out = np.zeros(a.shape[:-1] + (n,))
    starts = 2 * np.arange(half)
    for j in range(len(filt)):
        # stride-2 targets are distinct for fixed j, so plain += is safe
        out[..., (starts + j) % n] += filt.lowpass[j] * a + filt.highpass[j] * d
    return np.moveaxis(out, -1, axis)


def dwt2d_level(matrix, filt: WaveletFilter) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One 2-D level: rows first, then columns of each half.

    Returns (LL, HL, LH, HH).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("dwt2d_level expects a 2-D matrix")
    pair = (filt.lowpass, filt.highpass)
    low_x, high_x = _analyze(m, pair, axis=1)
    ll, lh = _analyze(low_x, pair, axis=0)
    hl, hh = _analyze(high_x, pair, axis=0)
    return ll, hl, lh, hh


def _idwt2d_level(
    ll: np.ndarray, hl: np.ndarray, lh: np.ndarray, hh: np.ndarray, filt: WaveletFilter
) -> np.ndarray:
    low_x = _synthesize(ll, lh, filt, axis=0)
    high_x = _synthesize(hl, hh, filt, axis=0)
    return _synthesize(low_x, high_x, filt, axis=1)


def pad_even(matrix) -> np.ndarray:
    """Replicate the last row/column so both extents are even."""
    m = np.asarray(matrix, dtype=np.float64)
    h, w = m.shape
    if h % 2:
        m = np.vstack([m, m[-1:, :]])
    if w % 2:
        m = np.hstack([m, m[:, -1:]])
    return m


def dwt2d(matrix, filt: WaveletFilter, levels: int, details: bool = True) -> WaveletDecomposition:
    """Multi-level decomposition, recursing on the LL band.

    Each level pads its input to even extents first; the run is rejected
    with MammoscopeError if any level would see an extent shorter than
    the filter. With ``details`` False only the lowpass chain runs, rows
    then columns, and the decomposition carries no detail bands.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("dwt2d expects a 2-D matrix")

    bands: list[dict[str, np.ndarray]] = []
    current = m
    for _ in range(levels):
        current = pad_even(current)
        if min(current.shape) < len(filt):
            raise MammoscopeError(
                f"{levels} levels exhaust a {m.shape[0]}x{m.shape[1]} input for filter {filt.name}"
            )
        if details:
            current, hl, lh, hh = dwt2d_level(current, filt)
            bands.append({"HL": hl, "LH": lh, "HH": hh})
        else:
            (low_x,) = _analyze(current, (filt.lowpass,), axis=1)
            (current,) = _analyze(low_x, (filt.lowpass,), axis=0)
    return WaveletDecomposition(filt, levels, tuple(bands), current)


def idwt2d(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert dwt2d, returning the (top-level padded) input matrix."""
    if len(decomp.details) != decomp.levels:
        raise MammoscopeError(
            f"{len(decomp.details)} detail levels for a {decomp.levels}-level decomposition"
        )
    current = decomp.approx
    for level in range(decomp.levels, 0, -1):
        bands = decomp.details[level - 1]
        hl, lh, hh = bands["HL"], bands["LH"], bands["HH"]
        if hl.shape != lh.shape or hl.shape != hh.shape:
            raise MammoscopeError(f"detail shapes differ at level {level}")
        target = hl.shape
        if current.shape[0] < target[0] or current.shape[1] < target[1]:
            raise MammoscopeError(
                f"approximation {current.shape} smaller than details {target}"
            )
        current = current[: target[0], : target[1]]
        current = _idwt2d_level(current, hl, lh, hh, decomp.filter)
    return current
