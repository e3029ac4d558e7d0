"""PGM reading and writing, plus the normalized raster the pipeline works on.

Supports the two grayscale Netpbm formats only: plain "P2" (ASCII) and raw
"P5" (binary, big-endian two-byte samples above maxval 255). Comments, ``#``
to end of line, may stand before and between header fields and among P2
samples. P5 rejects one right after maxval, where readers disagree on where
the raster starts: there, one whitespace byte ends the header.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MammoscopeError

MAX_MAXVAL = 65535


@dataclass(frozen=True)
class RawImage:
    """Decoded PGM: integer samples in row-major order, int64 for P2 and the
    file's own width (uint8 or uint16) for P5."""

    width: int
    height: int
    maxval: int
    samples: np.ndarray  # 1-D integer array, length width * height


@dataclass(frozen=True)
class GrayImage:
    """Real-valued intensity raster, shape (height, width)."""

    pixels: np.ndarray

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


# the six whitespace bytes, as bytes.split() has them, and a '#'-to-end-of-line comment
_SPACE, _COMMENT = rb" \t\r\n\x0b\x0c", re.compile(rb"#[^\n]*")
# magic, width, height and maxval, each after any whitespace and comments, then the byte
# that ends the header: whitespace, '#', or none at the end of the data
_FIELD = rb"(?:[%s]|%s)*([^%s#]*)" % (_SPACE, _COMMENT.pattern, _SPACE)
_HEADER = re.compile(_FIELD * 4 + rb"(.?)", re.DOTALL)


# 10**18 < 2**63, so a run with at most this many significant digits fits int64
_MAX_DIGITS = 18


def _p2_samples(payload: bytes, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` whitespace-separated runs of a comment-free payload
    as int64 samples, read as int() reads each one.

    Runs of at most _MAX_DIGITS ASCII digits are decoded together in numpy;
    only the odd runs, those with any other byte or more digits, go through
    int(), one at a time and in file order. Raises MammoscopeError, in order of
    precedence, for the first run int() cannot read, a value beyond int64, too
    few runs, or the first run with a sign or '_'.
    """
    codes = np.frombuffer(payload, np.uint8)
    # the six bytes bytes.split() splits at: ' ' and 9..13 (uint8 wraps below 9)
    space = (codes == ord(" ")) | (codes - 9 <= 4)
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))[: 2 * count]
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    head = slice(0, edges.max(initial=0))  # through the count-th run
    stray = np.flatnonzero((codes[head] - ord("0") > 9) & ~space[head])
    odd = lengths > _MAX_DIGITS
    odd[np.searchsorted(starts, stray, "right") - 1] = True  # the run each stray byte is in
    tokens = [payload[s:e] for s, e in zip(starts[odd].tolist(), ends[odd].tolist())]
    try:
        values = np.array(list(map(int, tokens)), dtype=np.int64)
    except ValueError as exc:
        raise MammoscopeError(f"unreadable sample token: {exc}") from None
    except OverflowError:
        raise MammoscopeError(f"sample outside 0..{maxval}") from None
    if len(starts) < count:
        raise MammoscopeError(f"expected {count} samples, got {len(starts)}")
    # int() also reads a sign and '_' digit separators, the only non-digits it takes
    bad = next((t for t in tokens if not t.isdigit()), None)
    if bad is not None:
        raise MammoscopeError(f"sample token {bad!r} is not ASCII decimal digits")
    lengths[odd] = 0
    samples = np.zeros(count, np.int64)
    for k in range(lengths.max(), 0, -1):
        # Horner step over the k-th digit from each run's end; a run shorter than k,
        # odd runs included, reads a byte before its end (wrapping at 0) that is masked
        samples *= 10
        samples += np.where(lengths >= k, codes[ends - k] - ord("0"), 0)
    samples[odd] = values
    return samples


def read_pgm(data: bytes) -> RawImage:
    """Parse P2/P5 bytes into a RawImage.

    Header fields and P2 samples are ASCII decimal digits. Raises
    MammoscopeError naming the failure: a bad header, missing samples, or
    a sample that is not digits or exceeds maxval.
    """
    header = _HEADER.match(data)
    magic, *fields, end = header.groups()
    if magic not in (b"P2", b"P5"):
        raise MammoscopeError(f"unsupported magic {magic!r}; expected P2 or P5")
    numbers = []
    limit = sys.get_int_max_str_digits()  # the most digits int() reads; 0 lifts the limit
    for what, token in zip(("width", "height", "maxval"), fields):
        if not token.isdigit():
            raise MammoscopeError(f"non-numeric {what} token {token!r}")
        if 0 < limit < len(token):
            raise MammoscopeError(f"{what} token of {len(token)} digits, more than {limit}")
        numbers.append(int(token))
    width, height, maxval = numbers
    if width < 1 or height < 1:
        raise MammoscopeError(f"non-positive dimensions {width}x{height}")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise MammoscopeError(f"maxval {maxval} outside 1..{MAX_MAXVAL}")

    count = width * height
    if magic == b"P2":
        samples = _p2_samples(_COMMENT.sub(b"", data[header.end(4) :]), count, maxval)
    else:
        if end == b"#":
            raise MammoscopeError("comment between maxval and the P5 raster")
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        needed, available = dtype.itemsize * count, len(data) - header.end()
        if available < needed:
            raise MammoscopeError(f"expected {needed} bytes, got {available}")
        samples = np.frombuffer(data, dtype, count, header.end())
        samples = samples.astype(dtype.newbyteorder("="), copy=False)

    if samples.max() > maxval:
        raise MammoscopeError(
            f"sample {int(samples.max())} exceeds maxval {maxval}"
        )
    return RawImage(width, height, maxval, samples)


def to_gray(raw: RawImage) -> GrayImage:
    """Scale samples by 1/maxval into a float raster."""
    # the float64 quotient converts each sample exactly, then rounds once
    samples = raw.samples.reshape(raw.height, raw.width)
    pixels = np.true_divide(samples, raw.maxval, dtype=np.float64)
    return GrayImage(pixels)


def write_pgm(img: GrayImage, maxval: int = 255, binary: bool = False) -> bytes:
    """Encode a [0, 1] raster as PGM bytes.

    Pixels quantize to round(p * maxval) with ties rounding up, so a
    read-back of the output reproduces the quantized image exactly.
    """
    if not 1 <= maxval <= MAX_MAXVAL:
        raise ValueError(f"maxval {maxval} outside 1..{MAX_MAXVAL}")
    pixels = img.pixels
    # written so that a NaN pixel fails it too
    if not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
        raise ValueError("pixels must lie in [0, 1] before writing")
    quantized = np.floor(pixels * maxval + 0.5).astype(np.int64)
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{maxval}\n"
    if binary:
        dtype = ">u2" if maxval > 255 else np.uint8
        return header.encode("ascii") + quantized.astype(dtype).tobytes()
    # one table row per sample value present: its digits right-aligned, NUL where a leading
    # zero would be, then a space. Viewed as one bytes item per row, the table is gathered a
    # cell at a time, and dropping the NULs leaves "v v ... v\n" per image row
    present = np.bincount(quantized.ravel()) > 0  # the range check keeps every sample >= 0
    values = np.flatnonzero(present)[:, None]
    powers = 10 ** np.arange(len(str(values[-1, 0])) - 1, -1, -1)
    digits = np.where(np.maximum(values, 1) >= powers, values // powers % 10 + ord("0"), 0)
    table = np.hstack([digits, np.full_like(values, ord(" "))]).astype(np.uint8)
    rank = np.cumsum(present) - 1  # each value's row in the table
    raw = table.view(f"S{table.shape[1]}")[:, 0][rank[quantized]].view(np.uint8)
    raw[:, -1] = ord("\n")
    return header.encode("ascii") + raw[raw != 0].tobytes()
