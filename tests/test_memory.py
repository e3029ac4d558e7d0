"""Peak memory of the two steps that handle large data.

The feature-table reader walks its text line by line instead of wrapping
it in ``io.StringIO``, which stores a copy at 4 bytes per character.
``extract_features`` never holds a padded image's complex half plane whole,
and ``default8`` subtracts the log-magnitude map's mean in place for its moments.
Peaks are measured with ``tracemalloc``, which sees every numpy buffer, and
given in units of the input they scale with.
"""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mammoscope.features import (
    FeatureConfig,
    FeatureTable,
    _Lines,
    extract_features,
    table_from_csv,
    table_to_csv,
)
from mammoscope.imgio import GrayImage


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of one call, above what was held before it."""
    fn(*args)  # a first call pays for lazy imports and caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTablePeak:
    def test_parse_holds_no_copy_of_the_text(self):
        rng = np.random.default_rng(5)
        table = FeatureTable(
            tuple(f"f{j}" for j in range(48)),
            tuple(f"img_{i:05d}.pgm" for i in range(2000)),
            tuple(("normal", "suspicious")[i % 2] for i in range(2000)),
            rng.standard_normal((2000, 48)),
        )
        text = table_to_csv(table)
        assert traced_peak(table_from_csv, text) < 2 * len(text)


# One half-plane map: N x (N/2 + 1) float64 for an image whose longest side fft2d pads to 512.
HALF_MAP = 512 * 257 * 8


class TestExtractPeak:
    @pytest.mark.parametrize("shape", [(257, 257), (300, 200)], ids=["257x257", "300x200"])
    @pytest.mark.parametrize("mode, bound", [("default8", 2.75), ("extended", 5.0)])
    def test_peak_in_half_plane_maps(self, mode, bound, shape):
        """The column pass holds the row pass's output, the log half plane and one block.
        default8 then subtracts that map's mean in place, so its moments add one buffer;
        extended subtracts it from a copy and adds the centred (fft-shifted) N x N map,
        written once."""
        img = GrayImage(np.random.default_rng(shape[0]).random(shape))
        peak = traced_peak(extract_features, img, FeatureConfig(mode=mode))
        assert peak / HALF_MAP < bound


LINE_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " ", "\x00", '"', ",", "é",
               *"0123456789"]


def _header_read(source) -> None:
    """Read the header record as ``table_from_csv`` does; it may span lines or fail."""
    try:
        next(csv.reader(source, strict=True), None)
    except csv.Error:
        pass


class TestLines:
    @settings(max_examples=400, deadline=None)
    @given(text=st.lists(st.sampled_from(LINE_PIECES), max_size=24).map("".join))
    @example(text="")
    @example(text="id,label\nx,normal")
    def test_matches_stringio(self, text):
        """The lines and offsets are those of ``io.StringIO``'s lines and ``tell()``."""
        assert list(_Lines(text)) == list(io.StringIO(text))
        buf, lines = io.StringIO(text), _Lines(text)
        _header_read(buf)
        _header_read(lines)
        body = buf.tell()
        assert lines.offset == body
        assert list(_Lines(text, body)) == list(lines) == list(buf)
        assert lines.offset == buf.tell() == len(text)
