"""PGM reading and writing, plus the normalized raster the pipeline works on.

Supports the two grayscale Netpbm formats only: plain "P2" (ASCII) and raw
"P5" (binary, big-endian two-byte samples above maxval 255). Header
comments starting with ``#`` are accepted wherever whitespace may appear,
since real scanner exports contain them.
"""

from __future__ import annotations

import re
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


# a run of whitespace bytes and '#'-to-end-of-line comments, then one token
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*)*([^ \t\r\n\x0b\x0c#]*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    return match.group(1), match.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise MammoscopeError(f"non-numeric {what} token {token!r}")
    return int(token), pos


def read_pgm(data: bytes) -> RawImage:
    """Parse P2/P5 bytes into a RawImage.

    Header fields and P2 samples are ASCII decimal digits. Raises
    MammoscopeError naming the failure: a bad header, missing samples, or
    a sample that is not digits or exceeds maxval.
    """
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise MammoscopeError(f"unsupported magic {magic!r}; expected P2 or P5")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise MammoscopeError(f"non-positive dimensions {width}x{height}")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise MammoscopeError(f"maxval {maxval} outside 1..{MAX_MAXVAL}")

    count = width * height
    if magic == b"P2":
        payload = re.sub(rb"#[^\n]*", b"", data[pos:])
        tokens = payload.split()[:count]
        try:
            samples = np.array(list(map(int, tokens)), dtype=np.int64)
        except ValueError as exc:
            raise MammoscopeError(f"unreadable sample token: {exc}") from None
        except OverflowError:
            raise MammoscopeError(f"sample outside 0..{maxval}") from None
        if len(tokens) < count:
            raise MammoscopeError(f"expected {count} samples, got {len(tokens)}")
        # int() also reads a sign and '_' digit separators, the only non-digits it takes
        if any(c in payload for c in (b"+", b"-", b"_")) and not b"".join(tokens).isdigit():
            bad = next(t for t in tokens if not t.isdigit())
            raise MammoscopeError(f"sample token {bad!r} is not ASCII decimal digits")
    else:
        # exactly one whitespace byte separates maxval from the binary payload
        start = pos + 1
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        needed = dtype.itemsize * count
        available = max(len(data) - start, 0)
        if available < needed:
            raise MammoscopeError(f"expected {needed} bytes, got {available}")
        samples = np.frombuffer(data, dtype, count, start)
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
    if pixels.min() < 0.0 or pixels.max() > 1.0:
        raise ValueError("pixels must lie in [0, 1] before writing")
    quantized = np.floor(pixels * maxval + 0.5).astype(np.int64)
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{maxval}\n"
    if binary:
        dtype = ">u2" if maxval > 255 else np.uint8
        return header.encode("ascii") + quantized.astype(dtype).tobytes()
    rows = "\n".join(" ".join(str(v) for v in row) for row in quantized)
    return header.encode("ascii") + rows.encode("ascii") + b"\n"
