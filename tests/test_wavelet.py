"""Tests for the discrete wavelet transform.

Expected values come from independent oracles: filter-tap identities
evaluated directly, straight-line convolution loops, and energy/roundtrip
properties of orthonormal filter banks.
"""

import math

import numpy as np
import pytest

from mammoscope.errors import MammoscopeError
from mammoscope.wavelet import (
    FILTER_NAMES,
    WaveletDecomposition,
    _analyze,
    _synthesize,
    dwt2d,
    dwt2d_level,
    get_filter,
    idwt2d,
    pad_even,
)

SQRT2 = math.sqrt(2.0)


def dwt1d(signal, filt):
    """One analysis step on a 1-D signal through the transform's own kernel."""
    return _analyze(signal, (filt.lowpass, filt.highpass), axis=0)


def idwt1d(approx, detail, filt):
    """One synthesis step on 1-D coefficients through the transform's own kernel."""
    return _synthesize(approx, detail, filt, axis=0)


def reference_dwt1d(signal, filt):
    """Straight-line loop evaluation of the analysis formula."""
    n = len(signal)
    length = len(filt.lowpass)
    approx = [
        sum(filt.lowpass[j] * signal[(2 * k + j) % n] for j in range(length))
        for k in range(n // 2)
    ]
    detail = [
        sum(filt.highpass[j] * signal[(2 * k + j) % n] for j in range(length))
        for k in range(n // 2)
    ]
    return np.array(approx), np.array(detail)


class TestFilters:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_tap_identities(self, name):
        filt = get_filter(name)
        assert abs(filt.lowpass.sum() - SQRT2) < 1e-12
        assert abs((filt.lowpass**2).sum() - 1.0) < 1e-12
        length = len(filt.lowpass)
        for k in range(length):
            assert filt.highpass[k] == (-1.0) ** k * filt.lowpass[length - 1 - k]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_filter("sym8")


class TestDwt1d:
    def test_haar_constant_kills_detail(self):
        approx, detail = dwt1d([1.0, 1.0], get_filter("haar"))
        assert approx == pytest.approx([SQRT2], abs=1e-15)
        assert detail == pytest.approx([0.0], abs=1e-15)

    def test_haar_alternation_kills_approx(self):
        approx, detail = dwt1d([1.0, -1.0], get_filter("haar"))
        assert approx == pytest.approx([0.0], abs=1e-15)
        assert detail == pytest.approx([SQRT2], abs=1e-15)

    def test_daub4_energy_preserved(self):
        rng = np.random.default_rng(1)
        filt = get_filter("daub4")
        for _ in range(10):
            signal = rng.standard_normal(16)
            approx, detail = dwt1d(signal, filt)
            total = (signal**2).sum()
            assert abs(total - (approx**2).sum() - (detail**2).sum()) < 1e-12 * total

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_matches_reference_loops(self, name):
        rng = np.random.default_rng(2)
        filt = get_filter(name)
        signal = rng.standard_normal(12)
        approx, detail = dwt1d(signal, filt)
        ref_a, ref_d = reference_dwt1d(signal, filt)
        np.testing.assert_allclose(approx, ref_a, atol=1e-14)
        np.testing.assert_allclose(detail, ref_d, atol=1e-14)

    @pytest.mark.parametrize("name", FILTER_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_shortest_extent_matches_reference_loops_bit_for_bit(self, name, seed):
        """At n = filter length most outputs wrap past the end; zeros keep their sign."""
        filt = get_filter(name)
        signal = np.random.default_rng(seed).standard_normal(len(filt))
        signal[seed % len(filt) :: 2] = -0.0
        for got, want in zip(dwt1d(signal, filt), reference_dwt1d(signal, filt)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_odd_length_rejected(self):
        with pytest.raises(MammoscopeError, match="extent 3 is odd"):
            dwt1d([1.0, 2.0, 3.0], get_filter("haar"))

    def test_too_short_rejected(self):
        with pytest.raises(MammoscopeError, match="extent 2 shorter than filter length 4"):
            dwt1d([1.0, 2.0], get_filter("daub4"))


class TestIdwt1d:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_roundtrip(self, name):
        rng = np.random.default_rng(3)
        filt = get_filter(name)
        for n in (8, 16, 32):
            signal = rng.standard_normal(n)
            back = idwt1d(*dwt1d(signal, filt), filt)
            np.testing.assert_allclose(back, signal, atol=1e-10)

    def test_haar_inverse_example(self):
        back = idwt1d([SQRT2], [0.0], get_filter("haar"))
        assert back == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_zeros_map_to_zeros(self):
        back = idwt1d(np.zeros(4), np.zeros(4), get_filter("daub4"))
        assert not back.any()


class TestDwt2dLevel:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_bit_identical_to_reference_loops(self, name):
        # the loops add the same products in the same tap order, so the
        # vectorized analysis must reproduce them exactly, not just closely
        filt = get_filter(name)

        def along_rows(m):
            pairs = [reference_dwt1d(row, filt) for row in m]
            return np.array([a for a, _ in pairs]), np.array([d for _, d in pairs])

        m = np.random.default_rng(4).standard_normal((6, 10))
        low_x, high_x = along_rows(m)
        ll, lh = (band.T for band in along_rows(low_x.T))
        hl, hh = (band.T for band in along_rows(high_x.T))
        for got, want in zip(dwt2d_level(m, filt), (ll, hl, lh, hh)):
            assert np.array_equal(got, want)

    def test_constant_image(self):
        c = 0.7
        ll, hl, lh, hh = dwt2d_level(np.full((8, 8), c), get_filter("haar"))
        np.testing.assert_allclose(ll, 2 * c, atol=1e-14)
        for band in (hl, lh, hh):
            assert np.abs(band).max() < 1e-12

    def test_vertical_step_energy_lands_in_hl(self):
        m = np.zeros((8, 8))
        m[:, 3:] = 1.0  # intensity varies along x only, step inside a sample pair
        ll, hl, lh, hh = dwt2d_level(m, get_filter("haar"))
        assert (hl**2).sum() > 0.5
        assert np.abs(lh).max() < 1e-12
        assert np.abs(hh).max() < 1e-12

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_energy_conservation(self, name):
        rng = np.random.default_rng(4)
        filt = get_filter(name)
        m = rng.standard_normal((8, 8))
        bands = dwt2d_level(m, filt)
        total = (m**2).sum()
        band_total = sum((b**2).sum() for b in bands)
        assert abs(total - band_total) < 1e-12 * total

    def test_odd_extent_rejected(self):
        with pytest.raises(MammoscopeError, match="extent 7 is odd"):
            dwt2d_level(np.zeros((7, 8)), get_filter("haar"))


class TestDwt2d:
    def test_two_level_constant(self):
        c = 0.3
        decomp = dwt2d(np.full((16, 16), c), get_filter("haar"), 2)
        np.testing.assert_allclose(decomp.approx, 4 * c, atol=1e-14)
        for bands in decomp.details:
            for band in bands.values():
                assert np.abs(band).max() < 1e-12

    def test_roundtrip_daub4_three_levels(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((64, 64))
        decomp = dwt2d(m, get_filter("daub4"), 3)
        np.testing.assert_allclose(idwt2d(decomp), m, atol=1e-9)

    def test_odd_shape_roundtrip_reconstructs_padded_input(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 7))
        decomp = dwt2d(m, get_filter("haar"), 2)
        recon = idwt2d(decomp)
        padded = pad_even(m)
        assert recon.shape == padded.shape
        np.testing.assert_allclose(recon, padded, atol=1e-10)
        np.testing.assert_allclose(recon[:5, :7], m, atol=1e-10)

    def test_too_many_levels(self):
        with pytest.raises(MammoscopeError, match="2 levels exhaust a 4x4 input"):
            dwt2d(np.zeros((4, 4)), get_filter("daub4"), 2)
        # one level on 4x4 daub4 is fine: extent equals the filter length
        dwt2d(np.zeros((4, 4)), get_filter("daub4"), 1)
        # a nested list is checked like an array, message and all
        message = "3 levels exhaust a 4x4 input for filter daub4"
        with pytest.raises(MammoscopeError, match=message):
            dwt2d([[0.0] * 4] * 4, get_filter("daub4"), 3)

    def test_haar_depth_unbounded_through_padding(self):
        # edge replication keeps every level at extent >= 2, so a short
        # filter never runs out; reconstruction still holds
        m = np.random.default_rng(11).standard_normal((4, 4))
        decomp = dwt2d(m, get_filter("haar"), 5)
        np.testing.assert_allclose(idwt2d(decomp), m, atol=1e-10)

    def test_subband_count_and_shapes(self):
        decomp = dwt2d(np.zeros((20, 12)), get_filter("haar"), 2)
        assert len(decomp.details) == 2
        assert all(sorted(bands) == ["HH", "HL", "LH"] for bands in decomp.details)
        assert decomp.details[0]["HL"].shape == (10, 6)
        assert decomp.details[1]["HL"].shape == (5, 3)
        assert decomp.approx.shape == (5, 3)

    def test_ceil_halving_with_odd_intermediates(self):
        # 10 -> 5 -> pad 6 -> 3: level-2 bands have ceil(ceil(10/2)/2) = 3 rows
        decomp = dwt2d(np.zeros((10, 16)), get_filter("haar"), 2)
        assert decomp.details[1]["HH"].shape == (3, 4)

    def test_zero_decomposition_inverts_to_zero(self):
        decomp = dwt2d(np.zeros((8, 8)), get_filter("daub4"), 2)
        assert not idwt2d(decomp).any()

    def test_malformed_decomposition(self):
        decomp = dwt2d(np.ones((8, 8)), get_filter("haar"), 1)
        broken = WaveletDecomposition(
            decomp.filter,
            1,
            ({"HL": decomp.details[0]["HL"][:2], "LH": decomp.details[0]["LH"],
              "HH": decomp.details[0]["HH"]},),
            decomp.approx,
        )
        with pytest.raises(MammoscopeError, match="detail shapes differ at level 1"):
            idwt2d(broken)


class TestLowpassChain:
    """dwt2d with details=False runs only the lowpass taps along rows, then columns."""

    @pytest.mark.parametrize("name", FILTER_NAMES)
    @pytest.mark.parametrize("shape", [(32, 32), (33, 33), (40, 27), (45, 64)])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_approx_bit_identical_to_full_run(self, name, shape, levels):
        filt = get_filter(name)
        m = np.random.default_rng(shape[0] * 10 + levels).standard_normal(shape)
        m[:3] = -0.0  # sign bits of zero coefficients must agree as well
        lean = dwt2d(m, filt, levels, details=False)
        full = dwt2d(m, filt, levels)
        assert lean.details == ()
        assert lean.levels == levels
        assert np.array_equal(lean.approx.view(np.int64), full.approx.view(np.int64))

    def test_too_many_levels(self):
        with pytest.raises(MammoscopeError, match="3 levels exhaust a 4x4 input"):
            dwt2d(np.zeros((4, 4)), get_filter("daub4"), 3, details=False)
        dwt2d(np.zeros((4, 4)), get_filter("daub4"), 1, details=False)

    def test_idwt2d_rejects_a_decomposition_without_details(self):
        lean = dwt2d(np.ones((8, 8)), get_filter("haar"), 2, details=False)
        with pytest.raises(MammoscopeError, match="0 detail levels"):
            idwt2d(lean)

    def test_idwt2d_rejects_fewer_detail_levels_than_levels(self):
        full = dwt2d(np.ones((8, 8)), get_filter("haar"), 2)
        short = WaveletDecomposition(full.filter, 2, full.details[:1], full.approx)
        with pytest.raises(MammoscopeError, match="1 detail levels for a 2-level decomposition"):
            idwt2d(short)


class TestPadEven:
    def test_odd_row_replicated(self):
        m = np.arange(20, dtype=float).reshape(5, 4)
        padded = pad_even(m)
        assert padded.shape == (6, 4)
        assert np.array_equal(padded[5], m[4])

    def test_even_unchanged(self):
        m = np.arange(16, dtype=float).reshape(4, 4)
        assert np.array_equal(pad_even(m), m)

    def test_single_pixel_becomes_2x2(self):
        assert pad_even(np.array([[3.0]])).tolist() == [[3.0, 3.0], [3.0, 3.0]]


class TestProperties:
    """Reconstruction and energy invariants over a grid of cases."""

    @pytest.mark.parametrize("name", FILTER_NAMES)
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_perfect_reconstruction(self, name, levels):
        rng = np.random.default_rng(7)
        for size in (16, 33, 64):
            m = rng.standard_normal((size, size))
            decomp = dwt2d(m, get_filter(name), levels)
            recon = idwt2d(decomp)
            assert np.abs(recon - pad_even(m)).max() < 1e-9

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_per_level_energy(self, name):
        rng = np.random.default_rng(8)
        filt = get_filter(name)
        for _ in range(25):
            m = rng.standard_normal((16, 16))
            bands = dwt2d_level(m, filt)
            total = (m**2).sum()
            assert abs(total - sum((b**2).sum() for b in bands)) < 1e-12 * total


class TestAxes:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    @pytest.mark.parametrize("shape", [(4, 6), (8, 10), (12, 7), (64, 33)])
    def test_axis_0_is_axis_1_on_the_transpose(self, name, shape):
        filt = get_filter(name)
        m = np.random.default_rng(shape[0]).standard_normal(shape)
        m[:, :2] = -0.0  # zero coefficients too, whose sign bits must also agree
        rows = [reference_dwt1d(row, filt) for row in m.T]
        loops = (np.array([a for a, _ in rows]), np.array([d for _, d in rows]))
        pair = (filt.lowpass, filt.highpass)
        for got, want, ref in zip(_analyze(m, pair, 0), _analyze(m.T, pair, 1), loops):
            assert np.array_equal(got.view(np.int64), want.T.view(np.int64))
            assert np.array_equal(want.view(np.int64), ref.view(np.int64))
            assert got.flags.c_contiguous
