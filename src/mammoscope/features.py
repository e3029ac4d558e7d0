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
import math
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import MammoscopeError
from .fourier import centred, half_log_magnitude, mirrored_columns
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
        raise MammoscopeError("statistic over an empty map")
    return a


def moments(
    values, twice: slice | None = None, in_place: bool = False
) -> tuple[float, float, float, float]:
    """Population (mean, std, skewness, kurtosis) of a map in one pass.

    The map is centred once, into a copy or, with ``in_place``, over a float64
    array's own entries, which the caller then no longer reads; its square,
    cube and fourth power then reuse two buffers. Entries in the last-axis
    slice ``twice`` count twice, so a half-plane spectrum gives the moments of
    the full grid it stands for. Skewness and kurtosis are 0 for degenerate maps.
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
    c = np.subtract(a, m, out=a) if in_place else a - m
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


def cross_correlation(a, b) -> float:
    """Pearson correlation of two maps, in [-1, 1].

    When the shapes differ, b is sampled bilinearly at a's dimensions on
    the corner-aligned grid first. Returns 0 when either map is degenerate.
    """
    x = np.atleast_2d(_as_map(a))
    y = np.atleast_2d(_as_map(b))
    if x.shape != y.shape:
        from scipy import ndimage  # here, not at module level: only image parsing pays for scipy
        axes = (np.linspace(0.0, m - 1.0, k) for m, k in zip(y.shape, x.shape))
        y = ndimage.map_coordinates(y, np.meshgrid(*axes, indexing="ij"), order=1)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.mean(xc**2))
    sy = np.sqrt(np.mean(yc**2))
    if sx <= DEGENERATE_STD or sy <= DEGENERATE_STD:
        return 0.0
    return float(np.clip(np.mean(xc * yc) / (sx * sy), -1.0, 1.0))


_STATS = ("mean", "std", "skew", "kurt")


def _stats(prefix: str, grid: np.ndarray, twice: slice | None = None, in_place: bool = False):
    return zip([f"{prefix}_{stat}" for stat in _STATS], moments(grid, twice, in_place))


def _detail_stats(decomp, log_half, last):
    for level, bands in enumerate(decomp.details, start=1):
        for band in DETAIL_BANDS:
            yield from _stats(f"w{band.lower()}{level}", bands[band])


def _xcorr(decomp, log_half, last):
    spectral_map = centred(log_half)
    final = {"LL": decomp.approx, **decomp.details[-1]}
    return [(f"xcorr_{b.lower()}", cross_correlation(final[b], spectral_map)) for b in final]


# The feature blocks in column order: the maps each block reads, and its (name, value) pairs
# from an image's decomposition, its half-plane log map and whether the block is the map's
# last reader in the mode, which may then overwrite it.
_BLOCKS = {
    "wll": ({"approx"}, lambda decomp, log_half, last: _stats("wll", decomp.approx)),
    "fft": ({"log"}, lambda decomp, log_half, last: _stats(
        "fft", log_half, mirrored_columns(len(log_half)), in_place=last)),
    "details": ({"details"}, _detail_stats),
    "xcorr": ({"approx", "details", "log"}, _xcorr),
}
_MODES = {"default8": ("wll", "fft"), "extended": tuple(_BLOCKS)}
FEATURE_MODES = tuple(_MODES)


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
    """Extract the feature vector of one (preprocessed) image: the blocks of its mode, in order.

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
    if cfg.mode not in _MODES:
        raise ValueError(f"unknown feature mode {cfg.mode!r}")
    reads, blocks = zip(*(_BLOCKS[name] for name in _MODES[cfg.mode]))
    details = any("details" in maps for maps in reads)
    decomp = dwt2d(img.pixels, get_filter(cfg.filter), cfg.levels, details=details)
    log_half = half_log_magnitude(img.pixels)
    pairs = []
    for i, block in enumerate(blocks):
        pairs += block(decomp, log_half, not any("log" in maps for maps in reads[i + 1 :]))
    names, values = zip(*pairs)
    return FeatureVector(names, np.array(values))


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


def _plain_number(kind, token: str):
    """``kind(token)`` for a token spelled as the feature CSV spells a number."""
    value = kind(token)  # kind's own message for a token that reads as no number at all
    if not _reads_as_float(token):
        raise ValueError(f"expected a plain ASCII number, got {token!r}")
    return value


class _Lines(Iterator):
    """The lines of ``text`` from ``offset`` on, as iterating ``io.StringIO(text)`` gives
    them: split at ``"\n"`` only, which each keeps. ``offset`` is where the next line
    starts. Unlike the StringIO, it holds no 4-byte-per-character copy of the text."""

    def __init__(self, text: str, offset: int = 0):
        self.text, self.offset = text, offset

    def __next__(self) -> str:
        start = self.offset
        if start >= len(self.text):
            raise StopIteration
        self.offset = self.text.find("\n", start) + 1 or len(self.text)
        return self.text[start : self.offset]


def _first_bad_row(rows: _Lines, names: tuple[str, ...], quote: tuple | None, failure) -> str:
    """Name the first bad row in file order; data rows count from 1, blank lines skipped.

    A row is bad if it holds the offset of ``_quote_problem``'s pair, loadtxt rejects
    it, its label is unknown or a value is not finite; a quote error is named before
    the symptoms it causes in its own row. A row that ``csv`` cannot split has no id
    to name, so it is reported by number; so is a row whose id or label is longer
    than ``csv.field_size_limit()``, and the row after the last when ``csv`` finds
    nothing wrong, with loadtxt's message ``failure`` as the reason. The limit is
    lifted while the rows are split, so a long value token is read as a value.
    """
    number = 0
    limit = csv.field_size_limit(2**31 - 1)  # the largest limit a 32-bit C long holds
    try:
        for number, row in enumerate(filter(None, csv.reader(rows)), start=1):
            if any(len(key) > limit for key in row[:2]):
                reason = f"field larger than field limit ({limit})"
                return f"row <unreadable> (data row {number}): {reason}"
            where = f"row {row[0]!r} (data row {number})"
            # csv reads no line past its record, so offset is where this record ends
            if quote and rows.offset > quote[0]:
                return f"{where}: {quote[1]}"
            if len(row) != 2 + len(names):
                return f"{where}: {len(row)} fields, expected {2 + len(names)}"
            if row[1] not in LABELS:
                return f"{where}: unknown label {row[1]!r}"
            for name, token in zip(names, row[2:]):
                if not _reads_as_float(token):
                    return f"{where}: cannot read {token!r} as a number for {name!r}"
                if not math.isfinite(float(token)):
                    return f"{where}: non-finite value for {name!r}"
    except csv.Error as exc:
        reason = str(exc).partition(" - ")[0]
        return f"row <unreadable> (data row {number + 1}): {reason}"
    finally:
        csv.field_size_limit(limit)
    return f"row <unreadable> (data row {number + 1}): {failure}"


# One quoted field as csv and np.loadtxt read it: an opening quote, which must start the
# field (the lookbehind turns down a quote after anything but a comma or line break; that
# quote is literal), the text with its doubled quotes, the closing quote, which is missing
# only when the text ends first, and the character after it unless that ends the field.
_QUOTED_FIELD = re.compile(r'"(?<![^,\r\n]")(?:[^"]+|"")*("?)([^,\r\n]?)')


def _quote_problem(text: str, start: int) -> tuple[int, str] | None:
    """Where the first quoted field from ``start`` on that never closes or runs on
    past its closing quote (RFC 4180) opens, and what is wrong with it, or None;
    csv and np.loadtxt read on past either."""
    for quoted in _QUOTED_FIELD.finditer(text, start):
        if not quoted.group(1):
            return quoted.start(), "quoted field never closes"
        if quoted.group(2):
            return quoted.start(), "text after closing quote"
    return None


def table_from_csv(text: str, key: str = "id") -> FeatureTable:
    """Parse a ``<key>,label[,<names...>]`` table: the header with ``csv``, then every
    row in one ``np.loadtxt`` pass. A manifest is such a table with ``key="path"`` and
    no feature columns.

    Values convert bit-identically to ``float()``; ``1_0``-style separators are rejected.
    Errors name the first bad row in file order by id and by its 1-based data-row number;
    an id longer than ``csv.field_size_limit()`` makes its row bad, as ``csv`` would.
    """
    lines = _Lines(text)
    try:
        header = next(csv.reader(lines, strict=True))
    except StopIteration:
        raise ValueError("no header row") from None
    except csv.Error as exc:
        raise ValueError(f"unreadable header: {exc}") from None
    if header[:2] != [key, "label"]:
        raise ValueError(f"header must start with {key},label")
    names = tuple(header[2:])
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate feature names {repeated} in the header")
    row_dtype = np.dtype([("id", object), ("label", object), ("v", np.float64, (len(names),))])
    body = lines.offset
    quote = _quote_problem(text, body) if '"' in text else None
    failure = None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                lines, dtype=row_dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        values = np.ascontiguousarray(rows["v"])
        if not np.isfinite(values).all():
            raise ValueError("non-finite value")
        ids = tuple(rows["id"].tolist())
        if max(map(len, ids), default=0) > csv.field_size_limit():
            raise ValueError("field larger than field limit")
        table = FeatureTable(names, ids, tuple(rows["label"].tolist()), values)
    except ValueError as exc:
        failure = str(exc).partition("; use `usecols`")[0]
    if failure is not None or quote:
        # the re-scan finds every problem above in file order, so the message found
        # without it is only a fallback
        raise ValueError(_first_bad_row(_Lines(text, body), names, quote, failure))
    if not table.n_rows:
        raise ValueError("no rows")
    return table


def select_features(table: FeatureTable, k: int) -> list[str]:
    """Rank features by Fisher discriminant ratio and return the top k.

    Score per feature: (mu_pos - mu_neg)^2 / (var_pos + var_neg + 1e-12)
    with population variances; ties break by header order and a NaN score ranks last.
    """
    n_features = len(table.names)
    if not 1 <= k <= n_features:
        raise MammoscopeError(f"k={k} outside 1..{n_features}")
    pos = table.values[table.suspicious]
    neg = table.values[~table.suspicious]
    if len(pos) < 2 or len(neg) < 2:
        raise MammoscopeError("need at least 2 rows per class to rank features")
    score = (pos.mean(axis=0) - neg.mean(axis=0)) ** 2 / (
        pos.var(axis=0) + neg.var(axis=0) + 1e-12
    )
    return [table.names[i] for i in np.argsort(-score, kind="stable")[:k]]
