"""Statistical moment features over wavelet and spectral maps.

All moments are population moments (divide by n): the statistics describe
the pixel distribution itself, not a sample estimate of something larger.
Kurtosis is plain (a Gaussian map scores 3), not excess. Maps that are
constant to within 1e-12 standard deviation yield 0 for skewness,
kurtosis and correlation rather than an error, because a flat subband is
a legitimate pipeline outcome and must not abort a batch run.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadKError, EmptyMapError, InsufficientDataError
from .fourier import fft2d, log_magnitude
from .imgio import GrayImage
from .wavelet import DETAIL_BANDS, get_filter, dwt2d

NORMAL = "normal"
SUSPICIOUS = "suspicious"
LABELS = (NORMAL, SUSPICIOUS)

DEGENERATE_STD = 1e-12


def _as_map(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        raise EmptyMapError("statistic over an empty map")
    return a


def moments(values) -> tuple[float, float, float, float]:
    """Population (mean, std, skewness, kurtosis) of a map in one pass.

    The map is centred once and the squared deviations are reused for the
    third and fourth moments. Skewness and kurtosis are 0 for degenerate
    maps.
    """
    a = _as_map(values)
    m = a.mean()
    c = a - m
    c2 = c * c
    sigma = np.sqrt(c2.mean())
    if sigma <= DEGENERATE_STD:
        return float(m), float(sigma), 0.0, 0.0
    return (
        float(m),
        float(sigma),
        float((c2 * c).mean() / sigma**3),
        float((c2 * c2).mean() / sigma**4),
    )


def mean(values) -> float:
    return moments(values)[0]


def stddev(values) -> float:
    """Population standard deviation: sqrt(mean((x - m)^2))."""
    return moments(values)[1]


def skewness(values) -> float:
    """Third central moment over sigma^3; 0 for degenerate maps."""
    return moments(values)[2]


def kurtosis(values) -> float:
    """Fourth central moment over sigma^4 (no -3 adjustment); 0 for degenerate maps."""
    return moments(values)[3]


def _resample_bilinear(src: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize by bilinear interpolation on the corner-aligned grid."""
    h, w = src.shape
    out_h, out_w = shape
    rows = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    cols = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    top = src[np.ix_(r0, c0)] * (1 - fc) + src[np.ix_(r0, c1)] * fc
    bottom = src[np.ix_(r1, c0)] * (1 - fc) + src[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bottom * fr


def cross_correlation(a, b) -> float:
    """Pearson correlation of two maps, in [-1, 1].

    When the shapes differ, b is bilinearly resampled to a's dimensions
    first. Returns 0 when either map is degenerate.
    """
    x = np.atleast_2d(_as_map(a))
    y = np.atleast_2d(_as_map(b))
    if x.shape != y.shape:
        y = _resample_bilinear(y, x.shape)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.mean(xc**2))
    sy = np.sqrt(np.mean(yc**2))
    if sx <= DEGENERATE_STD or sy <= DEGENERATE_STD:
        return 0.0
    r = float(np.mean(xc * yc) / (sx * sy))
    return min(1.0, max(-1.0, r))


_STATS = ("mean", "std", "skew", "kurt")

FEATURE_MODES = ("default8", "extended")


@dataclass(frozen=True)
class FeatureConfig:
    mode: str = "default8"
    filter: str = "daub4"
    levels: int = 3


@dataclass(frozen=True)
class FeatureVector:
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise ValueError("names and values differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite feature value")


def extract_features(img: GrayImage, cfg: FeatureConfig = FeatureConfig()) -> FeatureVector:
    """Extract the feature vector of one (preprocessed) image.

    default8 mode emits, in this fixed order, the four moments of the
    final-level wavelet LL band and the four moments of the centered
    log-magnitude spectrum:

        wll_mean, wll_std, wll_skew, wll_kurt,
        fft_mean, fft_std, fft_skew, fft_kurt

    extended mode appends the four moments of every detail subband
    (w<band><level>_<stat>, levels inner, bands HL/LH/HH) and the
    correlation of each final-level subband against the log-magnitude map
    (xcorr_ll, xcorr_hl, xcorr_lh, xcorr_hh).
    """
    if cfg.mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode {cfg.mode!r}")
    filt = get_filter(cfg.filter)
    decomp = dwt2d(img.pixels, filt, cfg.levels)
    spectral_map = log_magnitude(fft2d(img.pixels))

    names: list[str] = []
    values: list[float] = []

    def add_moments(prefix: str, grid: np.ndarray) -> None:
        names.extend(f"{prefix}_{stat}" for stat in _STATS)
        values.extend(moments(grid))

    add_moments("wll", decomp.approx)
    add_moments("fft", spectral_map)
    if cfg.mode == "extended":
        for level, bands in enumerate(decomp.details, start=1):
            for band in DETAIL_BANDS:
                add_moments(f"w{band.lower()}{level}", bands[band])
        final = {"LL": decomp.approx, **decomp.details[-1]}
        for band in ("LL", "HL", "LH", "HH"):
            names.append(f"xcorr_{band.lower()}")
            values.append(cross_correlation(final[band], spectral_map))

    return FeatureVector(tuple(names), np.array(values))


@dataclass(frozen=True)
class FeatureTable:
    """Labeled feature rows; every row shares the header's feature names."""

    names: tuple[str, ...]
    ids: tuple[str, ...]
    labels: tuple[str, ...]
    values: np.ndarray  # shape (n_rows, n_features)

    def __post_init__(self):
        rows = len(self.ids)
        if len(self.labels) != rows or self.values.shape != (rows, len(self.names)):
            raise ValueError("inconsistent table dimensions")
        for label in self.labels:
            if label not in LABELS:
                raise ValueError(f"unknown label {label!r}")

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    def subset(self, indices) -> "FeatureTable":
        idx = list(indices)
        return FeatureTable(
            self.names,
            tuple(self.ids[i] for i in idx),
            tuple(self.labels[i] for i in idx),
            self.values[idx, :],
        )

    def select_columns(self, names) -> "FeatureTable":
        wanted = list(names)
        missing = [n for n in wanted if n not in self.names]
        if missing:
            raise ValueError(f"unknown feature names {missing}")
        cols = [self.names.index(n) for n in wanted]
        return FeatureTable(tuple(wanted), self.ids, self.labels, self.values[:, cols])

    def class_values(self, label: str) -> np.ndarray:
        return self.values[np.array(self.labels, dtype=str) == label]


def table_from_rows(rows) -> FeatureTable:
    """Build a table from (id, label, FeatureVector) triples with matching names."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows")
    names = rows[0][2].names
    for rid, _, vec in rows:
        if vec.names != names:
            raise ValueError(f"row {rid!r} feature names do not match the header")
    return FeatureTable(
        names,
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
        np.array([r[2].values for r in rows]),
    )


def table_to_csv(table: FeatureTable) -> str:
    """Serialize with ``id,label,<names...>`` header and round-trip floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "label") + table.names)
    for rid, label, row in zip(table.ids, table.labels, table.values.tolist()):
        writer.writerow([rid, label, *map(repr, row)])
    return buf.getvalue()


def table_from_csv(text: str) -> FeatureTable:
    """Parse the header with ``csv``, then every row in one ``np.loadtxt`` pass.

    Values convert bit-identically to ``float()``; ``1_0``-style separators are rejected.
    """
    buf = io.StringIO(text)
    try:
        header = next(csv.reader(buf))
    except StopIteration:
        raise ValueError("empty feature CSV") from None
    except csv.Error as exc:
        raise ValueError(f"unreadable header: {exc}") from None
    if header[:2] != ["id", "label"]:
        raise ValueError("feature CSV must start with id,label columns")
    names = tuple(header[2:])
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate feature names {repeated} in the header")
    row_dtype = np.dtype([("id", object), ("label", object), ("v", np.float64, (len(names),))])
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                buf, dtype=row_dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
    except ValueError as exc:
        raise ValueError(str(exc).partition("; use `usecols`")[0]) from None
    if not len(rows):
        raise ValueError("feature CSV has no rows")
    ids = tuple(rows["id"].tolist())
    values = np.ascontiguousarray(rows["v"])
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"row {ids[r]!r} has a non-finite value for {names[c]!r}")
    return FeatureTable(names, ids, tuple(rows["label"].tolist()), values)


def select_features(table: FeatureTable, k: int) -> list[str]:
    """Rank features by Fisher discriminant ratio and return the top k.

    Score per feature: (mu_pos - mu_neg)^2 / (var_pos + var_neg + 1e-12)
    with population variances; ties break by header order.
    """
    n_features = len(table.names)
    if not 1 <= k <= n_features:
        raise BadKError(f"k={k} outside 1..{n_features}")
    pos = table.class_values(SUSPICIOUS)
    neg = table.class_values(NORMAL)
    if len(pos) < 2 or len(neg) < 2:
        raise InsufficientDataError("need at least 2 rows per class to rank features")
    score = (pos.mean(axis=0) - neg.mean(axis=0)) ** 2 / (
        pos.var(axis=0) + neg.var(axis=0) + 1e-12
    )
    order = sorted(range(n_features), key=lambda i: (-score[i], i))
    return [table.names[i] for i in order[:k]]
