"""Tests for the 2-D transform: fast path against the literal summation."""

import numpy as np
import pytest
import scipy

from mammoscope.fourier import (
    Spectrum,
    centred,
    dft2d_direct,
    fft2d,
    half_log_magnitude,
    log_magnitude,
)


def max_relative_error(got, want):
    scale = np.abs(want).max()
    if scale == 0.0:
        return np.abs(got).max()
    return np.abs(got - want).max() / scale


def _half_and_rfft2(shape):
    m = np.random.default_rng(shape[0] * 100 + shape[1] + 2).standard_normal(shape)
    half = fft2d(m).half
    return half, np.fft.rfft2(m, s=(half.shape[0],) * 2)


class TestDirect:
    def test_constant_two_by_two(self):
        c = 0.6
        spec = dft2d_direct(np.full((2, 2), c))
        assert spec.values[0, 0] == pytest.approx(4 * c, abs=1e-12)
        off_dc = np.abs(spec.values).copy()
        off_dc[0, 0] = 0.0
        assert off_dc.max() < 1e-12

    def test_impulse_is_flat(self):
        m = np.zeros((4, 4))
        m[0, 0] = 2.5
        spec = dft2d_direct(m)
        np.testing.assert_allclose(spec.values, 2.5, atol=1e-12)

    def test_cosine_rows_land_on_two_bins(self):
        # f(i, j) = cos(2 pi i / 4): row index i is conjugate to the first
        # output index, so energy sits at (1, 0) and (3, 0) with value 8
        n = 4
        i = np.arange(n)[:, None]
        m = np.broadcast_to(np.cos(2 * np.pi * i / n), (n, n)).copy()
        spec = dft2d_direct(m)
        assert spec.values[1, 0] == pytest.approx(8.0, abs=1e-9)
        assert spec.values[3, 0] == pytest.approx(8.0, abs=1e-9)
        rest = np.abs(spec.values).copy()
        rest[1, 0] = rest[3, 0] = 0.0
        assert rest.max() < 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dft2d_direct(np.zeros((2, 3)))


class TestFft:
    def test_matches_direct_on_random_8x8(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.random((8, 8))
            assert max_relative_error(fft2d(m).values, dft2d_direct(m).values) < 1e-9

    def test_matches_direct_on_16x16(self):
        m = np.random.default_rng(1).standard_normal((16, 16))
        assert max_relative_error(fft2d(m).values, dft2d_direct(m).values) < 1e-9

    def test_non_square_zero_padded_to_pow2(self):
        rng = np.random.default_rng(2)
        m = rng.random((5, 7))
        spec = fft2d(m)
        assert len(spec.half) == 8
        padded = np.zeros((8, 8))
        padded[:5, :7] = m
        assert max_relative_error(spec.values, dft2d_direct(padded).values) < 1e-9

    def test_zero_matrix(self):
        assert not fft2d(np.zeros((4, 4))).values.any()

    def test_single_pixel(self):
        spec = fft2d(np.array([[3.0]]))
        assert len(spec.half) == 1
        assert spec.values[0, 0] == 3.0

    def test_dc_equals_pixel_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.random((16, 16))
            spec = fft2d(m)
            assert abs(spec.values[0, 0] - m.sum()) < 1e-9 * m.sum()

    def test_parseval(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.standard_normal((16, 16))
            spec = fft2d(m)
            spatial = (m**2).sum()
            spectral = (np.abs(spec.values) ** 2).sum() / len(spec.half)**2
            assert abs(spatial - spectral) < 1e-9 * spatial

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.random((8, 8))
        y = rng.random((8, 8))
        a, b = 2.5, -1.25
        combined = fft2d(a * x + b * y).values
        separate = a * fft2d(x).values + b * fft2d(y).values
        assert max_relative_error(combined, separate) < 1e-9

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 8))
        values = fft2d(m).values
        n = 8
        for k in range(n):
            for l in range(n):
                mirror = values[(n - k) % n, (n - l) % n]
                assert abs(values[k, l] - np.conj(mirror)) < 1e-9


class TestLogMagnitude:
    def test_zero_spectrum(self):
        out = log_magnitude(Spectrum(np.zeros((4, 3), dtype=complex)))
        assert not out.any()

    def test_constant_image_single_center_peak(self):
        out = log_magnitude(fft2d(np.full((8, 8), 0.5)))
        assert out[4, 4] > 0.0
        rest = out.copy()
        rest[4, 4] = 0.0
        assert rest.max() < 1e-12

    def test_point_reflection_symmetry(self):
        m = np.random.default_rng(7).random((16, 16))
        out = log_magnitude(fft2d(m))
        reflected = np.roll(out[::-1, ::-1], (1, 1), axis=(0, 1))
        np.testing.assert_allclose(out, reflected, atol=1e-9)


def reference_log_magnitude(m, n):
    """The full-plane form: log1p|fft2| of the zero-padded input, rolled so DC is central."""
    return np.roll(np.log1p(np.abs(np.fft.fft2(m, s=(n, n)))), (n // 2, n // 2), (0, 1))


DIFFERENTIAL_CASES = [(1, 1), (2, 2), (3, 5), (5, 7), (33, 20)] + [
    (size, size) for size in (3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 63, 64)
]
# padded shapes cross column-block edges: N/2 + 1 is odd from N = 4 on, so never a multiple
# of the block width, and (100, 40), padded to 128, ends on a one-column block; the
# power-of-two squares and (64, 20), with no row padded, take the one-pass column transform
BLOCK_CASES = [(1, 1), (1, 2), (3, 5), (5, 3), (17, 17), (33, 20), (300, 200), (257, 257),
               (100, 40), (20, 64), (64, 20), (2, 2), (64, 64), (256, 256)]
RFFT2_CASES = sorted(set(DIFFERENTIAL_CASES + BLOCK_CASES + [(1025, 1025)]))


class TestHalfPlane:
    """The half-plane spectrum and the map built from it against numpy's full fft2."""

    @pytest.mark.parametrize("shape", DIFFERENTIAL_CASES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_values_match_full_fft2(self, shape):
        m = np.random.default_rng(shape[0] * 100 + shape[1]).standard_normal(shape)
        spec = fft2d(m)
        n = len(spec.half)
        assert spec.half.shape == (n, n // 2 + 1)
        assert max_relative_error(spec.values, np.fft.fft2(m, s=(n, n))) <= 1e-12

    @pytest.mark.parametrize("shape", DIFFERENTIAL_CASES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_log_magnitude_matches_full_plane_roll(self, shape):
        m = np.random.default_rng(shape[0] * 100 + shape[1] + 1).random(shape)
        spec = fft2d(m)
        want = reference_log_magnitude(m, len(spec.half))
        got = log_magnitude(spec)
        assert got.shape == want.shape
        assert max_relative_error(got, want) <= 1e-12
        assert np.array_equal(got, np.fft.fftshift(np.log1p(np.abs(spec.values))))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_log_magnitude_of_direct_spectrum_any_size(self, n):
        # dft2d_direct accepts odd sizes, so the map must not assume a power of two
        m = np.random.default_rng(n).standard_normal((n, n))
        spec = dft2d_direct(m)
        assert spec.half.shape == (n, n // 2 + 1)
        assert max_relative_error(spec.values, np.fft.fft2(m)) <= 1e-12
        assert max_relative_error(log_magnitude(spec), reference_log_magnitude(m, n)) <= 1e-12
        assert np.array_equal(log_magnitude(spec), np.fft.fftshift(np.log1p(np.abs(spec.values))))

    @pytest.mark.parametrize("n", range(1, 18))
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_centred_is_the_shifted_unfolded_map(self, n, dtype):
        """Any half map, Hermitian or not, lands bit for bit where gathering the mirrored
        rows, conjugating, concatenating and fft-shifting would put it."""
        rng = np.random.default_rng(n)
        half = rng.standard_normal((n, n // 2 + 1)).astype(dtype)
        if dtype is np.complex128:
            half += 1j * rng.standard_normal(half.shape)
        rest = np.conj(half[-np.arange(n) % n, 1 : n - n // 2][:, ::-1])
        want = np.fft.fftshift(np.concatenate([half, rest], axis=1))
        got = centred(half)
        assert got.dtype == dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("shape", RFFT2_CASES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_half_matches_numpy_rfft2(self, shape):
        """scipy.fft's row-then-column passes give numpy's rfft2 on any build."""
        half, want = _half_and_rfft2(shape)
        assert max_relative_error(half, want) <= 1e-12

    @pytest.mark.skipif(
        (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
        reason="bit-for-bit agreement is checked on numpy 2.4.6 with scipy 1.17.1 only",
    )
    @pytest.mark.parametrize("shape", RFFT2_CASES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_half_is_numpy_rfft2_bit_for_bit(self, shape):
        """On the pinned builds the two libraries agree to the last bit."""
        half, want = _half_and_rfft2(shape)
        assert np.array_equal(half.view(np.int64), want.view(np.int64))


def one_pass_half_plane(m):
    """The half plane and its log map with the whole column pass at once: rfft over the
    rows, then one fft(..., n=N) down the padded columns, then log1p|F| over all of it."""
    n = 1 << (max(*m.shape) - 1).bit_length()
    half = scipy.fft.fft(scipy.fft.rfft(m, n=n, axis=1), n=n, axis=0)
    mag = np.abs(half)
    return half, np.log1p(mag, out=mag)


class TestColumnBlocks:
    """The column pass in blocks gives what one pass over all columns gives, to the bit."""

    @pytest.mark.parametrize("shape", BLOCK_CASES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_equal_to_one_pass_bit_for_bit(self, shape):
        m = np.random.default_rng(shape[0] * 1000 + shape[1]).standard_normal(shape)
        half, log_half = one_pass_half_plane(m)
        got = fft2d(m).half
        assert got.shape == half.shape
        assert np.array_equal(got.view(np.int64), half.view(np.int64))
        got = half_log_magnitude(m)
        assert got.dtype == np.float64 and got.shape == log_half.shape
        assert np.array_equal(got.view(np.int64), log_half.view(np.int64))

    def test_signed_zeros_kept(self):
        """A zero image's bins are all signed zeros; both forms give the same sign bits."""
        m = np.zeros((5, 3))
        half, log_half = one_pass_half_plane(m)
        assert np.array_equal(fft2d(m).half.view(np.int64), half.view(np.int64))
        assert np.array_equal(half_log_magnitude(m).view(np.int64), log_half.view(np.int64))
