"""Tests for PGM parsing, emission and the gray conversion."""

import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammoscope import imgio
from mammoscope.errors import MammoscopeError
from mammoscope.features import FEATURE_MODES, FeatureConfig, extract_features
from mammoscope.imgio import GrayImage, RawImage, read_pgm, to_gray, write_pgm
from mammoscope.preprocess import PreprocessConfig, preprocess_pipeline

_WHITESPACE = b" \t\r\n\x0b\x0c"


def reference_skip_space(data: bytes, pos: int) -> int:
    """Byte-at-a-time header scanner: skip whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        if data[pos] == ord("#"):
            while pos < n and data[pos] != ord("\n"):
                pos += 1
        elif data[pos] in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def reference_next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    pos = reference_skip_space(data, pos)
    start = pos
    n = len(data)
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], pos


def reference_p2_samples(payload: bytes, count: int, maxval: int) -> np.ndarray:
    """One int() per token: the P2 sample decoder that read_pgm vectorizes.

    ``payload`` is everything after the maxval token.
    """
    payload = re.sub(rb"#[^\n]*", b"", payload)
    tokens = payload.split()[:count]
    try:
        samples = np.array(list(map(int, tokens)), dtype=np.int64)
    except ValueError as exc:
        raise MammoscopeError(f"unreadable sample token: {exc}") from None
    except OverflowError:
        raise MammoscopeError(f"sample outside 0..{maxval}") from None
    if len(tokens) < count:
        raise MammoscopeError(f"expected {count} samples, got {len(tokens)}")
    if any(c in payload for c in (b"+", b"-", b"_")) and not b"".join(tokens).isdigit():
        bad = next(t for t in tokens if not t.isdigit())
        raise MammoscopeError(f"sample token {bad!r} is not ASCII decimal digits")
    if samples.max() > maxval:
        raise MammoscopeError(f"sample {int(samples.max())} exceeds maxval {maxval}")
    return samples


def reference_read_pgm(data: bytes) -> RawImage:
    """read_pgm through four reference tokens: magic, width, height and maxval. The P5
    raster starts one byte after maxval, and a comment there is refused."""
    magic, pos = reference_next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise MammoscopeError(f"unsupported magic {magic!r}; expected P2 or P5")
    numbers = []
    for what in ("width", "height", "maxval"):
        token, pos = reference_next_token(data, pos)
        if not token.isdigit():
            raise MammoscopeError(f"non-numeric {what} token {token!r}")
        if 0 < sys.get_int_max_str_digits() < len(token):
            raise MammoscopeError(
                f"{what} token of {len(token)} digits, more than {sys.get_int_max_str_digits()}"
            )
        numbers.append(int(token))
    width, height, maxval = numbers
    if width < 1 or height < 1:
        raise MammoscopeError(f"non-positive dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise MammoscopeError(f"maxval {maxval} outside 1..65535")
    count = width * height
    if magic == b"P2":
        return RawImage(width, height, maxval, reference_p2_samples(data[pos:], count, maxval))
    if data[pos : pos + 1] == b"#":
        raise MammoscopeError("comment between maxval and the P5 raster")
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    needed, available = dtype.itemsize * count, max(len(data) - (pos + 1), 0)
    if available < needed:
        raise MammoscopeError(f"expected {needed} bytes, got {available}")
    samples = np.frombuffer(data, dtype, count, pos + 1).astype(dtype.newbyteorder("="))
    if samples.max() > maxval:
        raise MammoscopeError(f"sample {int(samples.max())} exceeds maxval {maxval}")
    return RawImage(width, height, maxval, samples)


def reference_p2_encode(img: GrayImage, maxval: int) -> bytes:
    """One str() per sample: the plain PGM encoder that write_pgm vectorizes."""
    quantized = np.floor(img.pixels * maxval + 0.5).astype(np.int64)
    rows = "\n".join(" ".join(str(v) for v in row) for row in quantized)
    return f"P2\n{img.width} {img.height}\n{maxval}\n{rows}\n".encode("ascii")


class TestReadPgm:
    def test_ascii_basic(self):
        raw = read_pgm(b"P2\n2 2\n255\n0 255 128 64")
        assert (raw.width, raw.height, raw.maxval) == (2, 2, 255)
        assert raw.samples.tolist() == [0, 255, 128, 64]

    def test_binary_basic(self):
        raw = read_pgm(b"P5\n1 1\n255\n" + bytes([0x40]))
        assert (raw.width, raw.height, raw.maxval) == (1, 1, 255)
        assert raw.samples.tolist() == [64]

    def test_binary_16bit_big_endian(self):
        raw = read_pgm(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0xFF, 0xFF]))
        assert raw.samples.tolist() == [256, 65535]

    @pytest.mark.parametrize("maxval, dtype", [(255, np.uint8), (200, np.uint8),
                                               (256, np.uint16), (4095, np.uint16),
                                               (65535, np.uint16)])
    def test_binary_samples_keep_the_file_width(self, maxval, dtype):
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, size=6 * 5)
        raw = RawImage(6, 5, maxval, samples)
        back = read_pgm(write_pgm(to_gray(raw), maxval=maxval, binary=True))
        assert back.samples.dtype == dtype
        assert back.samples.tolist() == samples.tolist()
        # one exact int-to-float conversion, then one rounding: same bits as via int64
        want = samples.astype(np.float64).reshape(5, 6) / maxval
        assert np.array_equal(to_gray(back).pixels.view(np.int64), want.view(np.int64))

    def test_plain_samples_stay_int64(self):
        assert read_pgm(b"P2\n2 1\n9\n3 9").samples.dtype == np.int64

    def test_unsupported_magic(self):
        with pytest.raises(MammoscopeError, match="unsupported magic b'P7'"):
            read_pgm(b"P7\n2 2\n255\n0 0 0 0")

    def test_header_comments_anywhere(self):
        data = b"P2 # plain format\n# size next\n2 1 # width height\n255\n# data\n3 4"
        raw = read_pgm(data)
        assert (raw.width, raw.height) == (2, 1)
        assert raw.samples.tolist() == [3, 4]

    @pytest.mark.parametrize("data, outcome", [
        (b"P5 2 1 255#c\n\x05\x06", "comment between maxval and the P5 raster"),
        (b"P5 2 1 255#\x05\x06", "comment between maxval and the P5 raster"),
        (b"P5 2 1 255#", "comment between maxval and the P5 raster"),
        # one space ends the header, so the raster starts at the '#'
        (b"P5 2 1 255 #c\n", [ord("#"), ord("c")]),
        (b"P5 2 1 255", "expected 2 bytes, got 0"),
        (b"P2 2 1 255#c\n5 6", [5, 6]),
    ], ids=["p5-comment-line", "p5-comment-then-raster", "p5-comment-at-end",
            "p5-space-then-hash", "p5-maxval-at-end", "p2-comment-after-maxval"])
    def test_what_follows_maxval(self, data, outcome):
        if isinstance(outcome, str):
            with pytest.raises(MammoscopeError, match=f"^{outcome}$"):
                read_pgm(data)
        else:
            assert read_pgm(data).samples.tolist() == outcome

    def test_non_numeric_header_token(self):
        with pytest.raises(MammoscopeError, match="non-numeric width token b'two'"):
            read_pgm(b"P2\ntwo 2\n255\n0 0")

    def test_truncated_ascii(self):
        with pytest.raises(MammoscopeError, match="expected 4 samples, got 3"):
            read_pgm(b"P2\n2 2\n255\n0 255 128")

    def test_truncated_binary(self):
        with pytest.raises(MammoscopeError, match="expected 4 bytes, got 3"):
            read_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_sample_above_maxval(self):
        with pytest.raises(MammoscopeError, match="sample 101 exceeds maxval 100"):
            read_pgm(b"P2\n1 1\n100\n101")
        with pytest.raises(MammoscopeError, match="sample 200 exceeds maxval 100"):
            read_pgm(b"P5\n1 1\n100\n" + bytes([200]))

    def test_sample_beyond_int64_is_out_of_range(self):
        for token in (b"99999999999999999999999", b"-99999999999999999999999"):
            with pytest.raises(MammoscopeError, match="sample outside 0..255"):
                read_pgm(b"P2\n2 1\n255\n3 " + token)

    def test_unreadable_and_negative_samples(self):
        with pytest.raises(MammoscopeError, match="unreadable sample token"):
            read_pgm(b"P2\n2 1\n255\n3 x")
        with pytest.raises(MammoscopeError, match="sample token b'-1' is not ASCII decimal digits"):
            read_pgm(b"P2\n2 1\n255\n3 -1")

    @pytest.mark.parametrize("data, message", [
        (b"P2 2 1 255 1_0 3", "sample token b'1_0' is not ASCII decimal digits"),
        (b"P2 2 1 255 3 +5", "sample token b'+5' is not ASCII decimal digits"),
        (b"P2 2 1 255 -0 3", "sample token b'-0' is not ASCII decimal digits"),
        (b"P2 1_0 1 255 " + b"0 " * 10, "non-numeric width token b'1_0'"),
        (b"P2 2 +1 255 0 0", "non-numeric height token b'+1'"),
        (b"P2 2 1 -0 0 0", "non-numeric maxval token b'-0'"),
        (b"P5 2 1 2_55 AB", "non-numeric maxval token b'2_55'"),
    ], ids=["sample-underscore", "sample-plus", "sample-minus-zero", "width-underscore",
            "height-plus", "maxval-minus-zero", "p5-maxval-underscore"])
    def test_integers_are_ascii_digits_only(self, data, message):
        with pytest.raises(MammoscopeError, match=re.escape(message)):
            read_pgm(data)

    def test_comments_inside_ascii_samples(self):
        raw = read_pgm(b"P2\n3 1\n255#c\n3#four\n4 # five\n5 ignored")
        assert raw.samples.tolist() == [3, 4, 5]
        # a sign or '_' in a comment or past the last sample read is not a sample token
        assert read_pgm(b"P2 2 1 255 # a-b_c+\n3 4 -1").samples.tolist() == [3, 4]

    def test_zero_padded_samples(self):
        padded = b"0" * 24 + b"7"
        assert read_pgm(b"P2 2 1 255 " + padded + b" 0" * 30).samples.tolist() == [7, 0]
        assert read_pgm(b"P2 1 1 255 " + b"0" * 4299 + b"5").samples.tolist() == [5]
        # int() reads no more digits than sys.get_int_max_str_digits(), 4300 by default
        with pytest.raises(MammoscopeError, match="unreadable sample token: Exceeds the limit"):
            read_pgm(b"P2 1 1 255 " + b"0" * 4300 + b"5")

    @pytest.mark.parametrize("data, message", [
        (b"P2 100000 100000 255 1 2 3", "expected 10000000000 samples, got 3"),
        (b"P5 100000 100000 255 " + bytes([1, 2, 3]), "expected 10000000000 bytes, got 3"),
    ], ids=["p2", "p5"])
    def test_huge_header_allocates_nothing_before_the_payload_check(self, data, message):
        tracemalloc.start()
        try:
            with pytest.raises(MammoscopeError, match=f"^{message}$"):
                read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("data, message", [
        (b"P2 " + b"1" * 5000 + b" 1 255 0", "width token of 5000 digits, more than 4300"),
        (b"P5 1 " + b"0" * 4301 + b" 255 A", "height token of 4301 digits, more than 4300"),
        (b"P2 1 1 " + b"9" * 4301 + b" 0", "maxval token of 4301 digits, more than 4300"),
        # each field is checked in turn, so an earlier field's error comes first
        (b"P2 x " + b"1" * 5000 + b" 255 0", "non-numeric width token b'x'"),
        (b"P2 " + b"1" * 5000 + b" x 255 0", "width token of 5000 digits, more than 4300"),
    ], ids=["width", "height-zero-padded", "maxval", "bad-width-first", "long-width-first"])
    def test_header_field_past_the_digit_limit(self, data, message):
        """int() refuses more than sys.get_int_max_str_digits() digits, 4300 by default,
        with a ValueError; read_pgm names the field first."""
        with pytest.raises(MammoscopeError, match=f"^{re.escape(message)}$"):
            read_pgm(data)

    def test_header_field_at_the_digit_limit_reads(self):
        raw = read_pgm(b"P2 " + b"0" * 4299 + b"2 1 255 3 4")
        assert (raw.width, raw.height, raw.samples.tolist()) == (2, 1, [3, 4])

    def test_bad_dimensions_rejected(self):
        with pytest.raises(MammoscopeError, match="non-positive dimensions 0x2"):
            read_pgm(b"P2\n0 2\n255\n")
        with pytest.raises(MammoscopeError, match="maxval 70000 outside 1..65535"):
            read_pgm(b"P2\n1 1\n70000\n5")


class TestP2Traffic:
    @staticmethod
    def int_calls(monkeypatch):
        """The bytes imgio hands to int() from now on, in call order."""
        calls = []

        def counting_int(value, *args):
            if isinstance(value, bytes):
                calls.append(value)
            return int(value, *args)

        monkeypatch.setattr(imgio, "int", counting_int, raising=False)
        return calls

    @pytest.mark.parametrize("maxval", [1, 255, 4095, 65535])
    def test_written_p2_decodes_in_the_numpy_pass(self, maxval, monkeypatch):
        """Every P2 file write_pgm writes is decoded in numpy: int() reads only
        the three header fields."""
        pixels = np.random.default_rng(maxval).random((17, 23))
        pixels[0, :2] = 0.0, 1.0
        data = write_pgm(GrayImage(pixels), maxval)
        calls = self.int_calls(monkeypatch)
        raw = read_pgm(data)
        assert raw.samples.tolist() == np.floor(pixels * maxval + 0.5).ravel().tolist()
        assert calls == [b"23", b"17", str(maxval).encode()]

    def test_int_reads_only_the_odd_sample_tokens(self, monkeypatch):
        """In a written 64 x 64 P2 with one zero-padded token too long for the
        numpy pass and one signed token, int() reads those two samples only."""
        tokens = write_pgm(GrayImage(np.random.default_rng(7).random((64, 64)))).split()
        padded = b"0" * 19 + tokens[1000]
        tokens[1000], tokens[3000] = padded, b"+5"
        data = b" ".join(tokens)
        calls = self.int_calls(monkeypatch)
        with pytest.raises(MammoscopeError, match=r"sample token b'\+5' is not ASCII"):
            read_pgm(data)
        assert calls == [b"64", b"64", b"255", padded, b"+5"]
        # without the signed token the padded one is written in among the numpy runs
        tokens[3000] = b"5"
        calls.clear()
        raw = read_pgm(b" ".join(tokens))
        assert raw.samples.tolist() == [int(t) for t in tokens[4:]]
        assert calls == [b"64", b"64", b"255", padded]


class TestToGray:
    def test_endpoints(self):
        img = to_gray(RawImage(1, 2, 255, np.array([0, 255])))
        assert img.pixels.tolist() == [[0.0], [1.0]]

    def test_exact_division(self):
        img = to_gray(RawImage(1, 1, 200, np.array([50])))
        assert img.pixels.tolist() == [[0.25]]

    def test_16bit_endpoints(self):
        img = to_gray(RawImage(2, 2, 65535, np.array([65535, 0, 0, 65535])))
        assert img.pixels.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_argmax_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            samples = rng.integers(0, 256, size=24)
            raw = RawImage(6, 4, 255, samples)
            gray = to_gray(raw)
            assert gray.pixels.argmax() == samples.argmax()


class TestWritePgm:
    def test_ascii_single_pixel(self):
        data = write_pgm(GrayImage(np.array([[1.0]])), maxval=255, binary=False)
        assert data == b"P2\n1 1\n255\n255\n"

    def test_round_half_up(self):
        data = write_pgm(GrayImage(np.array([[0.5]])), maxval=255, binary=False)
        assert read_pgm(data).samples.tolist() == [128]

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError):
            write_pgm(GrayImage(np.array([[1.5]])))

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("pixels", [[[np.nan, 0.5]], [[0.5, 0.25], [1.0, np.nan]], [[np.nan]]],
                             ids=["nan-first", "nan-last", "nan-alone"])
    def test_rejects_nan_pixels(self, pixels, binary):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("pixels must lie in [0, 1]")):
                write_pgm(GrayImage(np.array(pixels)), maxval=255, binary=binary)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (9, 11)])
    @pytest.mark.parametrize("maxval", [1, 9, 10, 99, 100, 255, 256, 4095, 9999, 10000, 65535])
    def test_plain_output_matches_per_sample_reference(self, maxval, shape):
        rng = np.random.default_rng([maxval, *shape])
        pixels = rng.random(shape)
        # each decimal width up to maxval's, between the two endpoints
        inner = [v for v in (9, 10, 99, 100, 999, 1000, 9999, 10000) if v < maxval]
        inner = inner[: max(pixels.size - 2, 0)]
        pixels.flat[1 : 1 + len(inner)] = np.array(inner) / maxval
        pixels.flat[0], pixels.flat[-1] = 0.0, 1.0
        for img in (GrayImage(pixels), GrayImage(np.zeros((1, 1))), GrayImage(np.ones((1, 1)))):
            assert write_pgm(img, maxval=maxval, binary=False) == reference_p2_encode(img, maxval)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_raw_round_trip(self, binary, maxval):
        rng = np.random.default_rng(17)
        for _ in range(5):
            samples = rng.integers(0, maxval + 1, size=7 * 5)
            raw = RawImage(7, 5, maxval, samples)
            back = read_pgm(write_pgm(to_gray(raw), maxval=maxval, binary=binary))
            assert back.width == raw.width and back.height == raw.height
            assert back.maxval == raw.maxval
            assert back.samples.tolist() == samples.tolist()

    def test_quantized_round_trip_is_stable(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.random((9, 4)))
        once = read_pgm(write_pgm(img, maxval=255))
        twice = read_pgm(write_pgm(to_gray(once), maxval=255))
        assert once.samples.tolist() == twice.samples.tolist()


HEADERS = st.sampled_from([b"", b"P2", b"P5", b"P2\n2 2\n255\n", b"P5\n2 1\n65535\n"])
SAMPLE_TOKENS = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.text(alphabet="0123456789+-_#xe\n\t ", max_size=6),
)


# P2 payload pieces: separators, and tokens that int(), the digit rule or maxval refuses
SEPARATORS = st.one_of(
    st.lists(st.sampled_from([bytes([c]) for c in _WHITESPACE]), min_size=1, max_size=3)
    .map(b"".join),
    st.binary(max_size=4).map(lambda body: b"#" + body + b"\n"),
)
HOSTILE_TOKENS = st.one_of(
    st.sampled_from([18, 19, 25]).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n).map(str.encode)),
    st.integers(0, 10**25).map(lambda v: str(v).encode()),
    st.sampled_from([10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1]).map(lambda v: str(v).encode()),
    st.tuples(st.sampled_from([b"", b"+", b"-"]), st.integers(0, 999),
              st.sampled_from([b"", b"_0", b"x", b":", b"/", b"e", b"\x85", b"\xa0", b"\xff", b"-"]))
    .map(lambda t: t[0] + str(t[1]).encode() + t[2]),
    st.binary(min_size=1, max_size=3).filter(
        lambda b: not any(c in _WHITESPACE or c == ord("#") for c in b)),
)


# header pieces: runs of whitespace and comments, and field tokens good and bad
DIMENSIONS = st.sampled_from([b"1", b"2", b"3", b"02", b"0", b"x"])
GAPS = st.lists(st.sampled_from([bytes([c]) for c in _WHITESPACE] + [b"#c\n", b"# 7 #\r\n"]),
                min_size=1, max_size=3).map(b"".join)
HEADER_FIELDS = st.sampled_from([b"#", b"P2", b"P5", b"P7", b"0", b"1", b"2", b"3", b"255",
                                 b"256", b"4095", b"65535", b"70000", b"1_0", b"+1", b"x", b"\x00",
                                 b"\xa0"])


def read_outcome(read, *args):
    """What a reader gives: the decoded image's fields, or the error message."""
    try:
        raw = read(*args)
    except MammoscopeError as exc:
        return str(exc)
    return raw.width, raw.height, raw.maxval, raw.samples.dtype, raw.samples.tolist()


class TestReadPgmProperties:
    @settings(max_examples=400, deadline=None)
    @given(
        # up to 96 samples, so the odd tokens fall among dozens of runs the numpy pass decodes
        width=st.integers(1, 16),
        height=st.integers(1, 6),
        maxval=st.one_of(st.sampled_from([1, 9, 255, 256, 4095, 65535]), st.integers(1, 65535)),
        clean=st.booleans(),
        data=st.data(),
    )
    def test_p2_samples_match_int_per_token_reference(self, width, height, maxval, clean, data):
        count = width * height
        samples = st.one_of(
            st.integers(0, maxval).map(lambda v: str(v).encode()),
            st.tuples(st.integers(1, 30), st.integers(0, maxval))
            .map(lambda t: b"0" * t[0] + str(t[1]).encode()),
        )
        tokens = data.draw(st.lists(samples, min_size=count if clean else max(count - 2, 0),
                                    max_size=count))
        if not clean:  # one or two bad tokens among the samples
            for token in data.draw(st.lists(HOSTILE_TOKENS, min_size=1, max_size=2)):
                tokens.insert(data.draw(st.integers(0, len(tokens))), token)
        # junk after the samples is not read
        tokens += data.draw(st.lists(st.one_of(samples, HOSTILE_TOKENS), max_size=3))
        gaps = data.draw(st.lists(SEPARATORS, min_size=len(tokens), max_size=len(tokens)))
        payload = b"".join(gap + token for gap, token in zip(gaps, tokens))
        payload += data.draw(st.one_of(st.just(b""), SEPARATORS))

        def reference(payload):
            samples = reference_p2_samples(payload, count, maxval)
            return RawImage(width, height, maxval, samples)

        got = read_outcome(read_pgm, b"P2 %d %d %d" % (width, height, maxval) + payload)
        assert got == read_outcome(reference, payload)

    @settings(max_examples=400, deadline=None)
    @given(
        pieces=st.one_of(
            st.tuples(st.one_of(st.just(b""), GAPS), st.sampled_from([b"P2", b"P5"]),
                      GAPS, DIMENSIONS, GAPS, DIMENSIONS,
                      GAPS, st.sampled_from([b"1", b"9", b"255", b"256", b"4095", b"65535", b"0",
                                             b"70000", b"+1"])),
            st.lists(st.one_of(GAPS, HEADER_FIELDS, st.binary(min_size=1, max_size=4)),
                     max_size=10),
        ),
        end=st.sampled_from([b"", b" ", b"\n", b"\r\n", b"\t", b"#", b"#c\n", b" #c\n"]),
        tail=st.one_of(st.binary(max_size=24), st.binary(min_size=18, max_size=24),
                       st.lists(st.integers(0, 300).map(str), max_size=8).map(" ".join)
                       .map(str.encode)),
    )
    def test_header_matches_byte_loop_reference(self, pieces, end, tail):
        data = b"".join(pieces) + end + tail
        assert read_outcome(read_pgm, data) == read_outcome(reference_read_pgm, data)

    @staticmethod
    def parses_or_raises_mammoscope_error(data):
        try:
            raw = read_pgm(data)
        except MammoscopeError:
            return
        assert raw.samples.shape == (raw.width * raw.height,)
        assert 0 <= raw.samples.min() and raw.samples.max() <= raw.maxval

    @settings(deadline=None)
    @given(prefix=HEADERS, tail=st.binary(max_size=64))
    def test_arbitrary_bytes(self, prefix, tail):
        self.parses_or_raises_mammoscope_error(prefix + tail)

    @settings(deadline=None)
    @given(
        width=st.integers(1, 4),
        height=st.integers(1, 4),
        maxval=st.integers(1, 65535),
        tokens=st.lists(SAMPLE_TOKENS, max_size=20),
    )
    def test_p2_header_then_arbitrary_tokens(self, width, height, maxval, tokens):
        header = f"P2\n{width} {height}\n{maxval}\n".encode()
        self.parses_or_raises_mammoscope_error(header + " ".join(tokens).encode())

    @settings(deadline=None)
    @given(
        width=st.integers(1, 6),
        height=st.integers(1, 6),
        maxval=st.integers(1, 65535),
        data=st.data(),
    )
    def test_write_read_round_trip(self, width, height, maxval, data):
        """Each spelling reads back the drawn samples, and both give one gray image: P2
        decodes to int64 and P5 to uint8 or uint16, and that dtype never reaches the image."""
        samples = data.draw(
            st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height)
        )
        raw = RawImage(width, height, maxval, np.array(samples, dtype=np.int64))
        grays = []
        for binary in (False, True):
            back = read_pgm(write_pgm(to_gray(raw), maxval=maxval, binary=binary))
            assert (back.width, back.height, back.maxval) == (width, height, maxval)
            assert back.samples.tolist() == samples
            grays.append(to_gray(back).pixels.tobytes())
        assert grays[0] == grays[1]

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_spellings_give_byte_equal_features(self, maxval):
        """A 64 x 48 image written as P2 and as P5 gives byte-equal features in every mode,
        after the preprocessing ``extract`` runs."""
        pixels = np.random.default_rng(maxval).random((48, 64))
        images = [to_gray(read_pgm(write_pgm(GrayImage(pixels), maxval=maxval, binary=binary)))
                  for binary in (False, True)]
        for mode in FEATURE_MODES:
            p2, p5 = (extract_features(preprocess_pipeline(img, PreprocessConfig()),
                                       FeatureConfig(mode=mode)) for img in images)
            assert p2.names == p5.names
            assert p2.values.tobytes() == p5.values.tobytes()
