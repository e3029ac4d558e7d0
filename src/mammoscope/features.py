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
import math
import re
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import BadKError, EmptyMapError, InsufficientDataError
from .fourier import fft2d, half_log_magnitude
from .imgio import GrayImage
from .wavelet import DETAIL_BANDS, get_filter, dwt2d

NORMAL = "normal"
SUSPICIOUS = "suspicious"
LABELS = (NORMAL, SUSPICIOUS)

DEGENERATE_STD = 1e-12


def suspicious_mask(labels, ids=None) -> np.ndarray:
    """True where a label is exactly ``suspicious``; ValueError names one that is neither."""
    named = np.fromiter(labels, dtype=object)
    suspicious = named == SUSPICIOUS
    unknown = np.flatnonzero(~suspicious & (named != NORMAL))
    if len(unknown):
        i = unknown[0]
        where = "" if ids is None else f"row {ids[i]!r} (data row {i + 1}): "
        raise ValueError(f"{where}unknown label {named[i]!r}")
    return suspicious


def _as_map(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        raise EmptyMapError("statistic over an empty map")
    return a


def moments(values, twice: slice | None = None) -> tuple[float, float, float, float]:
    """Population (mean, std, skewness, kurtosis) of a map in one pass.

    The map is centred once; its square, cube and fourth power then reuse
    two buffers. Entries in the last-axis slice ``twice`` count twice, so a
    half-plane spectrum gives the moments of the full grid it stands for.
    Skewness and kurtosis are 0 for degenerate maps.
    """
    a = _as_map(values)
    n = a.size
    if twice is None:
        total = np.sum
    else:
        n += a[..., twice].size

        def total(x):
            return x.sum() + x[..., twice].sum()

    m = total(a) / n
    c = a - m
    c2 = np.square(c)
    sigma = np.sqrt(total(c2) / n)
    if sigma <= DEGENERATE_STD:
        return float(m), float(sigma), 0.0, 0.0
    third = total(np.multiply(c2, c, out=c)) / n
    fourth = total(np.square(c2, out=c2)) / n
    return float(m), float(sigma), float(third / sigma**3), float(fourth / sigma**4)


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
    final-level wavelet LL band and the four moments of the log-magnitude
    spectrum, taken over the half plane with the mirrored columns counted
    twice, so only the lowpass wavelet chain runs and no full map is built:

        wll_mean, wll_std, wll_skew, wll_kurt,
        fft_mean, fft_std, fft_skew, fft_kurt

    extended mode appends the four moments of every detail subband
    (w<band><level>_<stat>, levels inner, bands HL/LH/HH) and the
    correlation of each final-level subband against the centred
    log-magnitude map (xcorr_ll, xcorr_hl, xcorr_lh, xcorr_hh).
    """
    if cfg.mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode {cfg.mode!r}")
    extended = cfg.mode == "extended"
    decomp = dwt2d(img.pixels, get_filter(cfg.filter), cfg.levels, details=extended)
    spectrum = fft2d(img.pixels)
    log_half = half_log_magnitude(spectrum)

    names: list[str] = []
    values: list[float] = []

    def add_moments(prefix: str, grid: np.ndarray, twice: slice | None = None) -> None:
        names.extend(f"{prefix}_{stat}" for stat in _STATS)
        values.extend(moments(grid, twice))

    add_moments("wll", decomp.approx)
    add_moments("fft", log_half, spectrum.mirrored)
    if extended:
        for level, bands in enumerate(decomp.details, start=1):
            for band in DETAIL_BANDS:
                add_moments(f"w{band.lower()}{level}", bands[band])
        spectral_map = spectrum.centred(log_half)
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
    suspicious: np.ndarray = field(init=False, repr=False, compare=False)  # per row, from labels

    def __post_init__(self):
        rows = len(self.ids)
        if len(self.labels) != rows or self.values.shape != (rows, len(self.names)):
            raise ValueError("inconsistent table dimensions")
        object.__setattr__(self, "suspicious", suspicious_mask(self.labels, self.ids))

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    def subset(self, indices) -> "FeatureTable":
        idx = np.asarray(indices, dtype=np.intp)
        ids, labels = np.array((self.ids, self.labels), dtype=object)[:, idx].tolist()
        return FeatureTable(self.names, tuple(ids), tuple(labels), self.values[idx])

    def select_columns(self, names) -> "FeatureTable":
        wanted = list(names)
        missing = [n for n in wanted if n not in self.names]
        if missing:
            raise ValueError(f"unknown feature names {missing}")
        cols = [self.names.index(n) for n in wanted]
        return FeatureTable(tuple(wanted), self.ids, self.labels, self.values[:, cols])


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
    """Serialize with ``id,label,<names...>`` header and round-trip floats.

    Only the header, ids and labels can need quoting, so only they go
    through ``csv``; a float's ``repr`` never holds a comma, quote or newline.
    """
    # writerow returns what ``write`` returns: here, the quoted line itself
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    sep = "," if table.names else ""
    lines = [line(("id", "label") + table.names)]
    lines += [
        line((rid, label))[:-1] + sep + ",".join(map(repr, row)) + "\n"
        for rid, label, row in zip(table.ids, table.labels, table.values.tolist())
    ]
    return "".join(lines)


def _reads_as_float(token: str) -> bool:
    """Whether ``np.loadtxt`` reads the token as a float64."""
    core = token.strip()
    try:
        float(core)
    except ValueError:
        return False
    return core.isascii() and "_" not in core


def _first_bad_row(rows: io.StringIO, names: tuple[str, ...], quote: tuple | None, failure) -> str:
    """Name the first bad row in file order; data rows count from 1, blank lines skipped.

    A row is bad if loadtxt rejects it, its label is unknown, a value is not finite,
    or it holds the offset of ``_quote_problem``'s pair. A row that ``csv`` cannot
    split has no id to name, so it is reported by number; so is the row after the last
    when ``csv`` finds nothing wrong, with loadtxt's message ``failure`` as the reason.
    """
    number = 0
    try:
        for number, row in enumerate(filter(None, csv.reader(rows)), start=1):
            where = f"row {row[0]!r} (data row {number})"
            if len(row) != 2 + len(names):
                return f"{where}: {len(row)} fields, expected {2 + len(names)}"
            if row[1] not in LABELS:
                return f"{where}: unknown label {row[1]!r}"
            for name, token in zip(names, row[2:]):
                if not _reads_as_float(token):
                    return f"{where}: cannot read {token!r} as a number for {name!r}"
                if not math.isfinite(float(token)):
                    return f"{where}: non-finite value for {name!r}"
            # csv reads a StringIO line by line, so tell() is where this record ends
            if quote and rows.tell() > quote[0]:
                return f"{where}: {quote[1]}"
    except csv.Error as exc:
        reason = str(exc).partition(" - ")[0]
        return f"row <unreadable> (data row {number + 1}): {reason}"
    return f"row <unreadable> (data row {number + 1}): {failure}"


# One quoted field as csv and np.loadtxt read it: an opening quote, which must start the
# field (the lookbehind turns down a quote after anything but a comma or line break; that
# quote is literal), the text with its doubled quotes, the closing quote, which is missing
# only when the text ends first, and the character after it unless that ends the field.
_QUOTED_FIELD = re.compile(r'"(?<![^,\r\n]")(?:[^"]+|"")*("?)([^,\r\n]?)')


def _quote_problem(text: str, start: int = 0) -> tuple[int, str] | None:
    """Where the first quoted field from ``start`` on that never closes or runs on
    past its closing quote (RFC 4180) opens, and what is wrong with it, or None;
    csv and np.loadtxt read on past either."""
    for quoted in _QUOTED_FIELD.finditer(text, start):
        if not quoted.group(1):
            return quoted.start(), "quoted field never closes"
        if quoted.group(2):
            return quoted.start(), "text after closing quote"
    return None


def table_from_csv(text: str) -> FeatureTable:
    """Parse the header with ``csv``, then every row in one ``np.loadtxt`` pass.

    Values convert bit-identically to ``float()``; ``1_0``-style separators are rejected.
    Errors name the first bad row in file order by id and by its 1-based data-row number.
    """
    buf = io.StringIO(text)
    try:
        header = next(csv.reader(buf, strict=True))
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
    body = buf.tell()
    quote = _quote_problem(text, body) if '"' in text else None
    failure = None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                buf, dtype=row_dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        values = np.ascontiguousarray(rows["v"])
        if not np.isfinite(values).all():
            raise ValueError("non-finite value")
        table = FeatureTable(
            names, tuple(rows["id"].tolist()), tuple(rows["label"].tolist()), values
        )
    except ValueError as exc:
        failure = str(exc).partition("; use `usecols`")[0]
    if failure is not None or quote:
        buf.seek(body)
        # the re-scan finds every problem above in file order, so the message found
        # without it is only a fallback
        raise ValueError(_first_bad_row(buf, names, quote, failure))
    if not table.n_rows:
        raise ValueError("feature CSV has no rows")
    return table


def select_features(table: FeatureTable, k: int) -> list[str]:
    """Rank features by Fisher discriminant ratio and return the top k.

    Score per feature: (mu_pos - mu_neg)^2 / (var_pos + var_neg + 1e-12)
    with population variances; ties break by header order.
    """
    n_features = len(table.names)
    if not 1 <= k <= n_features:
        raise BadKError(f"k={k} outside 1..{n_features}")
    pos = table.values[table.suspicious]
    neg = table.values[~table.suspicious]
    if len(pos) < 2 or len(neg) < 2:
        raise InsufficientDataError("need at least 2 rows per class to rank features")
    score = (pos.mean(axis=0) - neg.mean(axis=0)) ** 2 / (
        pos.var(axis=0) + neg.var(axis=0) + 1e-12
    )
    order = sorted(range(n_features), key=lambda i: (-score[i], i))
    return [table.names[i] for i in order[:k]]
