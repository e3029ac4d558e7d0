"""Tests for moment features, correlation, extraction and ranking.

Derived expectations are computed by independent oracles: math.fsum
two-pass summation for the moments, straight-line loops plus a matrix-form
transform for the end-to-end extraction check, and hand-evaluated Fisher
ratios for the ranking.
"""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mammoscope import features
from mammoscope.errors import MammoscopeError
from mammoscope.features import (
    FEATURE_MODES,
    FeatureConfig,
    FeatureTable,
    FeatureVector,
    _quote_problem,
    _reads_as_float,
    cross_correlation,
    extract_features,
    kurtosis,
    mean,
    moments,
    select_features,
    skewness,
    stddev,
    suspicious_mask,
    table_from_csv,
    table_to_csv,
)
from mammoscope.fourier import (
    dft2d_direct,
    fft2d,
    half_log_magnitude,
    log_magnitude,
    mirrored_columns,
)
from mammoscope.imgio import GrayImage, read_pgm, to_gray, write_pgm
from mammoscope.phantom import PhantomConfig, render_image
from mammoscope.preprocess import PreprocessConfig, preprocess_pipeline
from mammoscope.wavelet import dwt2d


def two_pass_moments(values):
    """Oracle: fsum-based population moments of a flattened map."""
    flat = [float(v) for v in np.asarray(values).ravel()]
    n = len(flat)
    m = math.fsum(flat) / n
    mu2 = math.fsum((v - m) ** 2 for v in flat) / n
    mu3 = math.fsum((v - m) ** 3 for v in flat) / n
    mu4 = math.fsum((v - m) ** 4 for v in flat) / n
    sigma = math.sqrt(mu2)
    skew = 0.0 if sigma <= 1e-12 else mu3 / sigma**3
    kurt = 0.0 if sigma <= 1e-12 else mu4 / sigma**4
    return m, sigma, skew, kurt


@st.composite
def unit_maps(draw):
    """A map of 2 to 24 entries per side, each in [0, 1]."""
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    values = draw(st.lists(st.floats(0, 1), min_size=height * width, max_size=height * width))
    return np.array(values).reshape(height, width)


class TestMoments:
    def test_mean_basic(self):
        assert mean([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mean(np.full((3, 3), 0.7)) == pytest.approx(0.7, abs=1e-15)

    def test_stddev_basic(self):
        assert stddev(np.full((2, 2), 5.0)) == 0.0
        assert stddev([0.0, 2.0]) == 1.0

    def test_skewness_hand_values(self):
        assert skewness([1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)
        # mean 1, mu2 = 3, mu3 = 6: skew = 6 / (3 * sqrt(3)) = 2 / sqrt(3)
        assert skewness([0.0, 0.0, 0.0, 4.0]) == pytest.approx(
            2.0 / math.sqrt(3.0), abs=1e-12
        )
        assert skewness(np.full(5, 2.0)) == 0.0

    def test_kurtosis_hand_values(self):
        assert kurtosis([-1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
        # mu4 = 21, sigma^4 = 9
        assert kurtosis([0.0, 0.0, 0.0, 4.0]) == pytest.approx(21.0 / 9.0, abs=1e-12)
        assert kurtosis(np.full(5, 2.0)) == 0.0

    def test_match_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grid = rng.random((32, 32))
            m, s, g, k = two_pass_moments(grid)
            assert abs(mean(grid) - m) < 1e-12
            assert abs(stddev(grid) - s) < 1e-12
            assert abs(skewness(grid) - g) < 1e-12
            assert abs(kurtosis(grid) - k) < 1e-12

    def test_flattening_and_transpose_invariance(self):
        grid = np.random.default_rng(1).random((6, 9))
        for fn in (mean, stddev, skewness, kurtosis):
            assert fn(grid) == pytest.approx(fn(grid.T), abs=1e-12)
            assert fn(grid) == pytest.approx(fn(grid.ravel()), abs=1e-12)

    @settings(deadline=None)
    @given(
        grid=unit_maps(),
        s=st.floats(1 / 16, 16),
        flip=st.booleans(),
        b=st.floats(-16, 16),
    )
    @example(grid=np.random.default_rng(2).random((8, 8)), s=2.5, flip=True, b=0.75)
    def test_affine_equivariance(self, grid, s, flip, b):
        """Under ``a * x + b``, the mean maps alike, the std scales by ``|a|``, the skewness
        takes the sign of ``a`` and the kurtosis stays."""
        assume(stddev(grid) >= 0.05)
        a = -s if flip else s
        moved = a * grid + b

        def close(expected):
            return pytest.approx(expected, rel=1e-9, abs=1e-9)

        assert mean(moved) == close(a * mean(grid) + b)
        assert stddev(moved) == close(abs(a) * stddev(grid))
        assert skewness(moved) == close(math.copysign(1.0, a) * skewness(grid))
        assert kurtosis(moved) == close(kurtosis(grid))

    def test_empty_map_rejected(self):
        for fn in (mean, stddev, skewness, kurtosis):
            with pytest.raises(MammoscopeError, match="statistic over an empty map"):
                fn(np.empty((0,)))


def one_buffer_per_power_moments(values):
    """The fused formula with a fresh temporary per power, each averaged with .mean()."""
    a = np.asarray(values, dtype=np.float64)
    m = a.mean()
    c = a - m
    c2 = c * c
    sigma = np.sqrt(c2.mean())
    if sigma <= 1e-12:
        return float(m), float(sigma), 0.0, 0.0
    return (
        float(m),
        float(sigma),
        float((c2 * c).mean() / sigma**3),
        float((c2 * c2).mean() / sigma**4),
    )


class TestTwoBufferMoments:
    @pytest.mark.parametrize("shape", [(1,), (7,), (33, 17), (256, 256), (1024, 513)])
    def test_bit_identical_to_one_buffer_per_power(self, shape):
        rng = np.random.default_rng(shape[0])
        for grid in (rng.random(shape), rng.standard_normal(shape) ** 3, np.full(shape, 0.3)):
            got = moments(grid)
            want = one_buffer_per_power_moments(grid)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    def test_input_is_not_modified(self):
        grid = np.random.default_rng(3).random((9, 5))
        before = grid.copy()
        moments(grid, slice(1, 3))
        assert np.array_equal(grid, before)

    @pytest.mark.parametrize("shape, twice", [((1,), None), ((33, 17), None),
                                              ((64, 33), slice(1, 32)), ((9, 5), slice(1, 3))])
    def test_in_place_gives_the_copying_form_bit_for_bit(self, shape, twice):
        rng = np.random.default_rng(shape[0] + 5)
        for grid in (rng.random(shape), rng.standard_normal(shape) ** 3, np.full(shape, 0.3)):
            want = moments(grid, twice)
            got = moments(grid.copy(), twice, in_place=True)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    def test_twice_counts_columns_twice(self):
        grid = np.random.default_rng(4).random((6, 5))
        doubled = np.concatenate([grid, grid[:, 1:3]], axis=1)
        assert moments(grid, slice(1, 3)) == pytest.approx(moments(doubled), rel=1e-13)


def half_plane_fft_moments(spectrum):
    return moments(np.log1p(np.abs(spectrum.half)), mirrored_columns(len(spectrum.half)))


class TestHalfPlaneMoments:
    """fft moments from the half plane equal those of the centred full map."""

    @pytest.mark.parametrize("n", [2**p for p in range(12)])
    def test_power_of_two_sizes(self, n):
        pixels = np.random.default_rng(n).random((n, n))
        spectrum = fft2d(pixels)
        assert len(spectrum.half) == n
        got = half_plane_fft_moments(spectrum)
        assert got == pytest.approx(moments(log_magnitude(spectrum)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_odd_sizes_from_direct_sum(self, n):
        spectrum = dft2d_direct(np.random.default_rng(n).standard_normal((n, n)))
        got = half_plane_fft_moments(spectrum)
        assert got == pytest.approx(moments(log_magnitude(spectrum)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_constant_image(self, n, c):
        # all energy at DC: the map is flat apart from one bin, or flat outright
        spectrum = fft2d(np.full((n, n), c))
        got = half_plane_fft_moments(spectrum)
        assert got == pytest.approx(moments(log_magnitude(spectrum)), rel=1e-12, abs=0)

    def test_extract_features_uses_the_half_plane(self):
        pixels = np.random.default_rng(12).random((40, 24))
        vec = extract_features(GrayImage(pixels), FeatureConfig(levels=2))
        spectrum = fft2d(pixels)
        assert tuple(vec.values[4:]) == half_plane_fft_moments(spectrum)
        log_half = half_log_magnitude(pixels)
        assert tuple(vec.values[4:]) == moments(log_half, mirrored_columns(len(log_half)))
        assert tuple(vec.values[4:]) == pytest.approx(
            moments(log_magnitude(spectrum)), rel=1e-12, abs=0
        )


class TestCrossCorrelation:
    def test_self_correlation_is_one(self):
        grid = np.random.default_rng(3).random((7, 5))
        assert cross_correlation(grid, grid) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        grid = np.random.default_rng(4).random((7, 5))
        assert cross_correlation(grid, -grid) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_partner_scores_zero(self):
        grid = np.random.default_rng(5).random((4, 4))
        assert cross_correlation(grid, np.full((4, 4), 0.3)) == 0.0
        assert cross_correlation(np.full((4, 4), 0.3), grid) == 0.0

    def test_symmetric_when_shapes_match(self):
        rng = np.random.default_rng(6)
        x, y = rng.random((6, 6)), rng.random((6, 6))
        assert cross_correlation(x, y) == pytest.approx(
            cross_correlation(y, x), abs=1e-12
        )

    def test_resamples_second_argument(self):
        rng = np.random.default_rng(7)
        x = rng.random((8, 8))
        # upsampling x itself stays strongly positively correlated
        doubled = np.kron(x, np.ones((2, 2)))
        assert cross_correlation(x, doubled) > 0.9

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = cross_correlation(rng.random((5, 9)), rng.random((3, 4)))
            assert -1.0 <= r <= 1.0

    def test_bilinear_sampling_reproduces_an_affine_map(self):
        """Bilinear sampling is exact on an affine map, between pixels too."""

        def affine(rows, cols):
            return 0.3 * rows - 1.7 * cols + 2.0

        # 63 / 15 = 4.2 and 39 / 9 = 4.33...: every inner sample falls between pixels
        rows, cols = np.linspace(0, 63, 16), np.linspace(0, 39, 10)
        at_samples = affine(*np.meshgrid(rows, cols, indexing="ij"))
        on_grid = affine(*np.mgrid[0:64, 0:40])
        assert cross_correlation(at_samples, on_grid) == pytest.approx(1.0, abs=1e-12)
        assert cross_correlation(-at_samples, on_grid) == pytest.approx(-1.0, abs=1e-12)

    def test_sampling_grid_is_corner_aligned(self):
        """Corner pixels meet corner pixels: 17 samples of 65 are every fourth pixel.

        A half-pixel-centred resampler samples between those pixels and
        scores about 0.19 here.
        """
        y = np.random.default_rng(9).random((65, 65))
        assert cross_correlation(y[::4, ::4], y) == pytest.approx(1.0, abs=1e-12)


class TestExtractFeatures:
    def test_constant_image_default8(self):
        c = 0.5
        img = GrayImage(np.full((16, 16), c))
        vec = extract_features(img, FeatureConfig(mode="default8", filter="haar", levels=2))
        assert vec.names == (
            "wll_mean", "wll_std", "wll_skew", "wll_kurt",
            "fft_mean", "fft_std", "fft_skew", "fft_kurt",
        )
        by_name = dict(zip(vec.names, vec.values))
        assert by_name["wll_mean"] == pytest.approx(4 * c, abs=1e-12)
        assert by_name["wll_std"] == pytest.approx(0.0, abs=1e-12)
        assert by_name["wll_skew"] == 0.0
        assert by_name["wll_kurt"] == 0.0

    def test_extended_mode_names(self):
        img = GrayImage(np.random.default_rng(9).random((32, 32)))
        vec = extract_features(img, FeatureConfig(mode="extended", filter="haar", levels=2))
        assert len(vec.names) == 8 + 2 * 3 * 4 + 4
        assert "whl1_mean" in vec.names
        assert "whh2_kurt" in vec.names
        assert vec.names[-4:] == ("xcorr_ll", "xcorr_hl", "xcorr_lh", "xcorr_hh")

    def test_unknown_mode_rejected(self):
        img = GrayImage(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            extract_features(img, FeatureConfig(mode="all"))

    def test_matches_straight_line_oracle(self):
        """Full recomputation with independent loops and matrix products."""
        rng = np.random.default_rng(10)
        pixels = rng.random((16, 16))
        cfg = FeatureConfig(mode="default8", filter="daub4", levels=2)
        vec = extract_features(GrayImage(pixels), cfg)

        # wavelet side: straight-line periodic convolutions
        s3 = math.sqrt(3.0)
        low = [(1 + s3) / (4 * math.sqrt(2)), (3 + s3) / (4 * math.sqrt(2)),
               (3 - s3) / (4 * math.sqrt(2)), (1 - s3) / (4 * math.sqrt(2))]
        high = [low[3], -low[2], low[1], -low[0]]

        def analyze_rows(m, taps):
            h, w = m.shape
            out = np.zeros((h, w // 2))
            for r in range(h):
                for k in range(w // 2):
                    out[r, k] = sum(taps[j] * m[r, (2 * k + j) % w] for j in range(4))
            return out

        def one_level_ll(m):
            lo_x = analyze_rows(m, low)
            return analyze_rows(lo_x.T, low).T

        ll = one_level_ll(one_level_ll(pixels))
        m_w, s_w, g_w, k_w = two_pass_moments(ll)

        # spectral side: matrix-form transform W m W^T, then log1p + swap
        n = 16
        w_matrix = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        spectrum = w_matrix @ pixels @ w_matrix.T
        centered = np.roll(np.log1p(np.abs(spectrum)), (n // 2, n // 2), axis=(0, 1))
        m_f, s_f, g_f, k_f = two_pass_moments(centered)

        expected = [m_w, s_w, g_w, k_w, m_f, s_f, g_f, k_f]
        np.testing.assert_allclose(vec.values, expected, atol=1e-9)

    @pytest.mark.parametrize("mode, details", [("default8", False), ("extended", True)])
    def test_detail_bands_are_computed_only_for_a_mode_that_reads_them(
        self, monkeypatch, mode, details
    ):
        asked = []

        def recording_dwt2d(matrix, filt, levels, details=True):
            asked.append(details)
            return dwt2d(matrix, filt, levels, details)

        monkeypatch.setattr(features, "dwt2d", recording_dwt2d)
        img = GrayImage(np.random.default_rng(11).random((32, 32)))
        extract_features(img, FeatureConfig(mode=mode, filter="haar", levels=2))
        assert asked == [details]


# The eight symmetries of the square, as maps of a pixel array.
SQUARE_SYMMETRIES = {
    "identity": lambda m: m,
    "rot90": np.rot90,
    "rot180": lambda m: np.rot90(m, 2),
    "rot270": lambda m: np.rot90(m, 3),
    "flip-rows": np.flipud,
    "flip-columns": np.fliplr,
    "transpose": np.transpose,
    "anti-transpose": lambda m: np.rot90(m, 2).T,
}
# Stated, not tuned: measured relative gaps stayed below 3.1e-13.
SYMMETRY_TOLERANCE = dict(rtol=1e-12, atol=1e-12)
SYMMETRY_SHAPES = [(16, 16), (128, 128), (257, 257), (33, 20), (31, 47), (64, 200), (100, 70)]


def dark_third(seed, shape):
    """A random map whose first third of columns is dark, so that no symmetry maps it onto
    itself."""
    pixels = np.random.default_rng(seed).random(shape)
    pixels[:, : shape[1] // 3] *= 0.1
    return pixels


def _extract(pixels, mode):
    vec = extract_features(GrayImage(np.ascontiguousarray(pixels)), FeatureConfig(mode=mode))
    return dict(zip(vec.names, vec.values))


def _swap_hl_lh(name: str) -> str:
    return re.sub(r"\b(w|xcorr_)(hl|lh)", lambda m: m[1] + {"hl": "lh", "lh": "hl"}[m[2]], name)


symmetry_maps = st.builds(
    dark_third,
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(16, 257).map(lambda n: (n, n)), st.sampled_from(SYMMETRY_SHAPES)),
)


class TestFeatureSymmetries:
    """Relations between two extractions on one build, so they hold on any build."""

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    @settings(max_examples=15, deadline=None)
    @given(pixels=symmetry_maps)
    def test_fft_moments_are_invariant_under_the_square_symmetries(self, mode, pixels):
        """The magnitude spectrum of a flipped or transposed image is the original's, with
        its frequencies permuted, so its moments do not move."""
        want = {k: v for k, v in _extract(pixels, mode).items() if k.startswith("fft_")}
        assert len(want) == 4
        for name, symmetry in SQUARE_SYMMETRIES.items():
            got = _extract(symmetry(pixels), mode)
            np.testing.assert_allclose(
                [got[k] for k in want], list(want.values()), err_msg=name, **SYMMETRY_TOLERANCE
            )

    @settings(max_examples=15, deadline=None)
    @given(pixels=symmetry_maps)
    def test_transpose_swaps_hl_and_lh(self, pixels):
        """Transposing the image swaps the roles of rows and columns in the DWT, so every
        HL feature becomes the LH feature of the same level and the other way round."""
        want = _extract(pixels, "extended")
        got = {_swap_hl_lh(k): v for k, v in _extract(pixels.T, "extended").items()}
        assert sorted(got) == sorted(want)
        np.testing.assert_allclose(
            [got[k] for k in want], list(want.values()), **SYMMETRY_TOLERANCE
        )


# Extended vector of the seeded 64x64 phantom below, recorded with the
# radix-2 FFT and four-pass moments that numpy primitives later replaced.
# Byte-identical output is promised only for reruns on one numpy build; the
# 1e-12 tolerance absorbs last-digit differences between builds and kernels.
GOLDEN_EXTENDED = (
    ("wll_mean", 2.236765125570775),
    ("wll_std", 2.474908383020146),
    ("wll_skew", 0.5131447351678814),
    ("wll_kurt", 1.5130797993633627),
    ("fft_mean", 1.5189365696512553),
    ("fft_std", 0.7048428838967529),
    ("fft_skew", 1.6272351478635838),
    ("fft_kurt", 8.935797042674817),
    ("whl1_mean", 0.007999785958904066),
    ("whl1_std", 0.07516221594682508),
    ("whl1_skew", 2.7198369596207854),
    ("whl1_kurt", 16.969247291115053),
    ("wlh1_mean", -0.000874001141552556),
    ("wlh1_std", 0.06379255249251589),
    ("wlh1_skew", 0.16802960796367583),
    ("wlh1_kurt", 29.012459093271232),
    ("whh1_mean", 9.810216894977109e-05),
    ("whh1_std", 0.04283865980572342),
    ("whh1_skew", 0.6270464313079518),
    ("whh1_kurt", 32.74284736179213),
    ("whl2_mean", 0.03422463562064931),
    ("whl2_std", 0.17371521328648978),
    ("whl2_skew", 2.194521844683839),
    ("whl2_kurt", 9.276939729390326),
    ("wlh2_mean", -0.0016772159356766548),
    ("wlh2_std", 0.13948528477627867),
    ("wlh2_skew", -0.17465596431289288),
    ("wlh2_kurt", 17.16910591116903),
    ("whh2_mean", -0.0017665651372802376),
    ("whh2_std", 0.08042948342438681),
    ("whh2_skew", 0.4728801623855156),
    ("whh2_kurt", 19.891612553384572),
    ("whl3_mean", 0.14457253672567272),
    ("whl3_std", 0.5125132798350341),
    ("whl3_skew", 1.2494527070931325),
    ("whl3_kurt", 4.055870761832903),
    ("wlh3_mean", -0.004207529316982695),
    ("wlh3_std", 0.4459048963712029),
    ("wlh3_skew", -0.6520078416868419),
    ("wlh3_kurt", 10.355265156470539),
    ("whh3_mean", 0.0019102824666693656),
    ("whh3_std", 0.2082663020554316),
    ("whh3_skew", 1.567902136926652),
    ("whh3_kurt", 13.477244450424983),
    ("xcorr_ll", 0.14080563801136198),
    ("xcorr_hl", 0.010913866242310314),
    ("xcorr_lh", 0.005854528013717384),
    ("xcorr_hh", 0.10928095772332892),
)


class TestGoldenVector:
    @staticmethod
    def phantom():
        cfg = PhantomConfig(size=64, count_per_class=1, seed=11, mass_radius=10.0)
        img = to_gray(read_pgm(write_pgm(render_image(cfg, 1))))
        return preprocess_pipeline(img, PreprocessConfig())

    @pytest.mark.parametrize("mode, count", [("default8", 8), ("extended", 48)])
    def test_pinned_vector(self, mode, count):
        vec = extract_features(self.phantom(), FeatureConfig(mode=mode))
        names, values = zip(*GOLDEN_EXTENDED[:count])
        assert vec.names == names
        np.testing.assert_allclose(vec.values, values, rtol=1e-12, atol=1e-12)


class TestFeatureVector:
    def test_rejects_duplicates_and_nonfinite(self):
        with pytest.raises(ValueError):
            FeatureVector(("a", "a"), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FeatureVector(("a", "b"), np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            FeatureVector(("a",), np.array([1.0, 2.0]))


def small_table():
    return FeatureTable(
        ("f0", "f1", "f2"),
        tuple(f"img{i}" for i in range(6)),
        ("normal",) * 3 + ("suspicious",) * 3,
        np.array([
            [0.0, 5.0, 1.0],
            [0.2, 6.0, 1.1],
            [0.1, 4.0, 0.9],
            [1.0, 5.5, 1.0],
            [1.2, 4.5, 1.1],
            [1.1, 5.0, 0.9],
        ]),
    )


class TestFeatureTable:
    def test_csv_round_trip(self):
        table = small_table()
        back = table_from_csv(table_to_csv(table))
        assert back.names == table.names
        assert back.ids == table.ids
        assert back.labels == table.labels
        assert np.array_equal(back.values, table.values)

    def test_subset_matches_a_table_built_from_its_rows(self):
        table = small_table()
        idx = [3, 0, 0, 2]
        sub = table.subset(idx)
        rebuilt = FeatureTable(
            table.names, tuple(table.ids[i] for i in idx),
            tuple(table.labels[i] for i in idx), table.values[idx],
        )
        assert (sub.names, sub.ids, sub.labels) == (rebuilt.names, rebuilt.ids, rebuilt.labels)
        assert np.array_equal(sub.values, rebuilt.values)
        assert np.array_equal(sub.suspicious, rebuilt.suspicious)
        assert table.subset([]).n_rows == 0

    def test_select_columns(self):
        table = small_table()
        sub = table.select_columns(["f2", "f0"])
        assert sub.names == ("f2", "f0")
        assert np.array_equal(sub.values[:, 1], table.values[:, 0])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(("a",), ("x",), ("benign",), np.ones((1, 1)))

    @pytest.mark.parametrize("label", ["suspicious\x00", "normal ", "Suspicious"])
    def test_near_miss_label_rejected(self, label):
        """Labels compare exactly: a NUL, a space or a capital is no label."""
        with pytest.raises(ValueError) as info:
            FeatureTable(("a",), ("x", "y"), ("normal", label), np.zeros((2, 1)))
        assert str(info.value) == f"row 'y' (data row 2): unknown label {label!r}"

    def test_suspicious_mask_matches_labels(self):
        table = small_table()
        assert table.suspicious.tolist() == [label == "suspicious" for label in table.labels]
        assert suspicious_mask(table.labels).tolist() == table.suspicious.tolist()
        assert table.subset([4, 0]).suspicious.tolist() == [True, False]


def reference_table_from_csv(text):
    """Row-at-a-time oracle: ``csv.reader``, blank rows skipped, ``float()`` per value."""
    reader = csv.reader(io.StringIO(text))
    names = tuple(next(reader)[2:])
    ids, labels, rows = [], [], []
    for row in reader:
        if not row:
            continue
        assert len(row) == len(names) + 2
        ids.append(row[0])
        labels.append(row[1])
        rows.append([float(v) for v in row[2:]])
    values = np.array(rows, dtype=float).reshape(len(ids), len(names))
    return names, tuple(ids), tuple(labels), values


def assert_same_table(table, names, ids, labels, values):
    assert table.names == names
    assert table.ids == ids
    assert table.labels == labels
    assert table.values.shape == values.shape
    assert np.array_equal(table.values.view(np.int64), values.view(np.int64))


# Ids a csv writer must quote or that a comment-aware reader would drop.
AWKWARD_IDS = ["a,b", 'say "hi"', "#lead", "é.pgm", "new\nline", " padded ", "", "日本"]
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


@st.composite
def tables(draw):
    n_features = draw(st.integers(0, 4))
    n_rows = draw(st.integers(1, 6))
    ids = draw(
        st.lists(
            st.one_of(
                st.sampled_from(AWKWARD_IDS),
                st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r")),
            ),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    labels = draw(st.lists(st.sampled_from(["normal", "suspicious"]), min_size=n_rows,
                           max_size=n_rows))
    values = draw(st.lists(FINITE, min_size=n_rows * n_features, max_size=n_rows * n_features))
    return FeatureTable(
        tuple(f"f{j}" for j in range(n_features)),
        tuple(ids),
        tuple(labels),
        np.array(values, dtype=float).reshape(n_rows, n_features),
    )


def _format_value(rng, x):
    formats = ["{!r}", "{:.17g}", "{:.3e}", "{:.0f}", "{:+.5f}", "{:.6E}", " {!r} ", "{:g}"]
    return formats[rng.integers(len(formats))].format(x)


def random_csv(seed):
    """A seeded feature CSV in mixed number formats, quoting styles and line endings."""
    rng = np.random.default_rng(seed)
    n_rows, n_features = int(rng.integers(1, 40)), int(rng.integers(0, 8))
    bits = rng.integers(-(2**63), 2**63 - 1, size=(n_rows, n_features), dtype=np.int64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = -0.0
    values *= rng.random(values.shape) < 0.8  # some exact zeros of either sign
    quoting = csv.QUOTE_ALL if rng.random() < 0.3 else csv.QUOTE_MINIMAL
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator="\r\n" if seed % 2 else "\n")
    writer.writerow(["id", "label", *(f"f{j}" for j in range(n_features))])
    for i in range(n_rows):
        rid = AWKWARD_IDS[i % len(AWKWARD_IDS)] + str(i) if rng.random() < 0.5 else f"img{i}"
        label = "suspicious" if rng.random() < 0.5 else "normal"
        writer.writerow([rid, label, *(_format_value(rng, x) for x in values[i].tolist())])
        if rng.random() < 0.2:
            writer.writerow([])
    return buf.getvalue()


def reference_table_to_csv(table):
    """Every field through one csv.writer: the form table_to_csv reproduces byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "label") + table.names)
    for rid, label, row in zip(table.ids, table.labels, table.values.tolist()):
        writer.writerow([rid, label, *map(repr, row)])
    return buf.getvalue()


class TestCsvWrite:
    @settings(deadline=None)
    @given(table=tables())
    def test_matches_csv_writer_reference(self, table):
        assert table_to_csv(table) == reference_table_to_csv(table)

    @pytest.mark.parametrize("n_features", [0, 1, 3])
    def test_awkward_ids_match_reference(self, n_features):
        ids = AWKWARD_IDS + ["cr\rid", "crlf\r\nid", '"', '""', ",", "\n", "tab\tid"]
        rng = np.random.default_rng(n_features)
        shape = (len(ids), n_features)
        table = FeatureTable(
            tuple(f"f,{j}" for j in range(n_features)),
            tuple(ids),
            tuple(("normal", "suspicious")[i % 2] for i in range(len(ids))),
            rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape),
        )
        assert table_to_csv(table) == reference_table_to_csv(table)


class TestCsvParse:
    @settings(deadline=None)
    @given(table=tables())
    @example(
        table=FeatureTable(
            ("f0", "f1", "f2"),
            ("a,b", "#x"),
            ("normal", "suspicious"),
            np.array([[-0.0, 5e-324, 1e308], [-1e308, -5e-324, 0.0]]),
        )
    )
    def test_round_trip_is_bit_exact(self, table):
        back = table_from_csv(table_to_csv(table))
        assert_same_table(back, table.names, table.ids, table.labels, table.values)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_row_at_a_time_reference(self, seed):
        text = random_csv(seed)
        assert_same_table(table_from_csv(text), *reference_table_from_csv(text))

    @pytest.mark.parametrize(
        "text",
        [
            "id,label,a,b\r\nx,normal,1,2\r\ny,suspicious,3.5,-4e-3\r\n",
            "id,label,a,b\n\nx,normal,1,2\n\n\ny,suspicious,3,4\n\n",
            "id,label,a,b\n#x,normal,1,2\n# y,suspicious,3,4\n",
            'id,label,"a\nb",c\nx,normal,1,2\n',
            "id,label\nx,normal\ny,suspicious\n",
            "id,label,a\nx,normal,1",
            'id,label,a\na"b,normal,1\nc"",normal,2\n',
            'id,label,a\n"a\nb,",normal,1\n"x""",normal,"2"',
            'id,label,a\nx,normal,1\n"y,""z""",normal,"2"\n',
        ],
        ids=["crlf", "blank-lines", "hash-ids", "quoted-newline-header", "no-features",
             "no-final-newline", "mid-field-quotes", "closed-quotes-at-end", "quoted-last-id"],
    )
    def test_accepted(self, text):
        assert_same_table(table_from_csv(text), *reference_table_from_csv(text))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("y,normal,1,2,3", "row 2"),
            ("y,normal,1", "row 2"),
            ("y,normal,,2", "''"),
            ("y,normal,abc,2", "'abc'"),
            ("y,normal,1_0,2", "'1_0'"),
            ("y,suspiciousX,1,2", "unknown label 'suspiciousX'"),
        ],
        ids=["too-many", "too-few", "empty-field", "garbage", "digit-separator", "bad-label"],
    )
    def test_rejected(self, row, message):
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            table_from_csv(f"id,label,a,b\nx,normal,1,2\n\n{row}\nz,normal,3,4\n")
        assert "usecols" not in str(info.value)
        assert str(info.value).startswith("row 'y' (data row 2): ")

    @pytest.mark.parametrize(
        "row", ["y,normal,abc,2", "y,normal,1,2,3", "y,normal", "y,suspiciousX,1,2",
                "y,normal,nan,2"],
    )
    def test_first_data_row_is_row_1(self, row):
        with pytest.raises(ValueError) as info:
            table_from_csv(f"id,label,a,b\r\n\r\n{row}\r\nz,normal,3,4\r\n")
        assert str(info.value).startswith("row 'y' (data row 1): ")

    @pytest.mark.parametrize(
        "tail",
        ['"2\n', '"2', '"\n2\n', '" 2 \n\n\n', '"2\r\n'],
        ids=["newline", "no-final-newline", "newline-before-value", "blank-lines", "crlf"],
    )
    def test_open_quote_at_end_is_rejected(self, tail):
        """A last row cut inside a quoted field is named, not read as whole."""
        with pytest.raises(ValueError) as info:
            table_from_csv(f"id,label,a\nx,normal,1\ny,normal,{tail}")
        assert str(info.value) == "row 'y' (data row 2): quoted field never closes"

    @pytest.mark.parametrize(
        "row",
        ['y,normal,"1"2', 'y,normal,"1" ', 'y,normal,"1"e3', '"y"z,normal,1'],
        ids=["digit", "space", "exponent", "in-the-id"],
    )
    def test_text_after_closing_quote_is_rejected(self, row):
        """RFC 4180: a quoted field ends at its closing quote; csv and loadtxt would read on."""
        for end in ("\n", "\r\n", ""):
            with pytest.raises(ValueError) as info:
                table_from_csv(f'id,label,a\nx,normal,"1"\n\n{row}{end}')
            rid = "yz" if row.startswith('"y"') else "y"
            assert str(info.value) == f"row {rid!r} (data row 2): text after closing quote"

    @pytest.mark.parametrize("row", ['y,normal,"1"2,3', 'y,normal,"1""2"x'])
    def test_text_after_closing_quote_in_a_row_loadtxt_rejects(self, row):
        """Such a row is named by the first reason the row-by-row re-scan finds."""
        with pytest.raises(ValueError) as info:
            table_from_csv(f"id,label,a\nx,normal,1\n{row}\n")
        assert str(info.value).startswith("row 'y' (data row 2): ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('id,label,a\n"a\nb",normal,"1"\nc,normal,"2"2\nd,normal,"3"3\n',
             "row 'c' (data row 2): text after closing quote"),
            ('id,label,a\nx,normal,1\ny,normal,"1"2\nz,normal,3\nw,normal,abc\n',
             "row 'y' (data row 2): text after closing quote"),
            ('id,label,a\nx,normal,1\nw,normal,abc\nz,normal,3\ny,normal,"1"2\n',
             "row 'w' (data row 2): cannot read 'abc' as a number for 'a'"),
            ("id,label,a\nx,normal,1\ny,benign,2\nz,normal,3\nw,normal,abc\n",
             "row 'y' (data row 2): unknown label 'benign'"),
            ("id,label,a\nx,normal,1\ny,benign,2\nz,normal,nan\n",
             "row 'y' (data row 2): unknown label 'benign'"),
            ("id,label,a\nx,normal,1\ny,normal,-inf\nz,benign,3\n",
             "row 'y' (data row 2): non-finite value for 'a'"),
            ('id,label\nx,"normal\n', "row 'x' (data row 1): quoted field never closes"),
            ('id,label,a\n"x"y,normal,abc\n', "row 'xy' (data row 1): text after closing quote"),
            ('path,label\nx,"normal\n', "row 'x' (data row 1): quoted field never closes"),
            ('path,label\n"x"y,normal,abc\n', "row 'xy' (data row 1): text after closing quote"),
        ],
        ids=["two-such-rows", "before-a-row-loadtxt-rejects", "after-a-row-loadtxt-rejects",
             "label-before-a-row-loadtxt-rejects", "label-before-a-non-finite-value",
             "non-finite-value-before-a-label", "quote-before-its-label",
             "quote-before-its-value", "manifest-quote-before-its-label",
             "manifest-quote-before-its-field-count"],
    )
    def test_text_after_closing_quote_names_the_first_bad_row(self, text, message):
        """The first bad row in file order is named, whatever is wrong with it; in that row a
        quote error is named before the label or value csv reads past it."""
        with pytest.raises(ValueError) as info:
            table_from_csv(text, key=text.partition(",")[0])
        assert str(info.value) == message

    @pytest.mark.parametrize("header", ['id,label,"a"b', 'id,label,"a'])
    def test_header_quote_errors_are_rejected(self, header):
        with pytest.raises(ValueError, match="unreadable header"):
            table_from_csv(f"{header}\nx,normal,1\n")

    @settings(deadline=None)
    @given(text=st.text(st.sampled_from(list('a,"\n ')), max_size=16))
    def test_quote_problem_matches_strict_csv(self, text):
        """A quoted field that never closes or runs on past its closing quote is what
        strict csv turns down, and only that."""
        try:
            list(csv.reader(io.StringIO(text), strict=True))
            error = None
        except csv.Error as exc:
            error = str(exc)
        expected = {
            None: None,
            "unexpected end of data": "quoted field never closes",
            "',' expected after '\"'": "text after closing quote",
        }
        offset, reason = _quote_problem(text, 0) or (None, None)
        assert reason == expected[error]
        assert offset is None or text[offset] == '"'

    @settings(deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["y", '"y"', '"y\nz"', '"y"z', '"y']),
                      st.sampled_from(["1", '"1"', '" 1\n"', '"1"2', '"1" ', '"1', "abc", "1,2"])),
            min_size=1, max_size=5,
        ),
        end=st.sampled_from(["\n", "\r\n"]),
    )
    def test_quote_error_names_the_row_strict_csv_fails_on(self, rows, end):
        """No row after the one at which strict csv stops is named, and a quote error
        names that row."""
        body = "".join(f"{rid},normal,{value}{end}" for rid, value in rows)
        strict = enumerate(filter(None, csv.reader(io.StringIO(body), strict=True)), 1)
        number = 0
        try:
            for number, _ in strict:
                pass
        except csv.Error:
            stop = number + 1
        else:
            return
        with pytest.raises(ValueError) as info:
            table_from_csv(f"id,label,a{end}{body}")
        message = str(info.value)
        named = int(re.search(r" \(data row (\d+)\): ", message).group(1))
        assert named <= stop
        if message.endswith(("quoted field never closes", "text after closing quote")):
            assert named == stop

    @pytest.mark.parametrize(
        "text, number",
        [
            ("id,label,a\r\nx,normal,1\r\ry,normal,2\r\n", 1),
            ("id,label,a\n\nx,normal,1\n\n\ny,normal,2\rz,normal,3\n", 2),
            ("id,label,a\nx,normal,1\ny,normal,2\nz,normal,3\r4\n", 3),
        ],
        ids=["first-row", "after-blank-lines", "last-row"],
    )
    def test_row_csv_cannot_split_is_named_by_number(self, text, number):
        with pytest.raises(ValueError) as info:
            table_from_csv(text)
        assert str(info.value) == (
            f"row <unreadable> (data row {number}): new-line character seen in unquoted field"
        )

    @pytest.mark.parametrize(
        "text, number",
        [
            ("id,label,a\nx,normal,1\n\r\r", 2),
            ("id,label,a\n\r\r", 1),
            ("id,label,a\nx,normal,1\n\r\r\n", 2),
        ],
        ids=["after-a-row", "only-body", "then-newline"],
    )
    def test_lone_carriage_returns_name_the_row_after_the_last(self, text, number):
        """csv reads lone CRs as blank records, so loadtxt's message is the reason given."""
        with pytest.raises(ValueError) as info:
            table_from_csv(text)
        assert str(info.value).startswith(
            f"row <unreadable> (data row {number}): Found an unquoted embedded newline"
        )

    @pytest.mark.parametrize("seed", range(24))
    def test_error_names_the_corrupted_row(self, seed):
        """Row numbers count data rows across blank lines, CRLF and quoted newlines."""
        text = random_csv(seed)
        rows = list(csv.reader(io.StringIO(text)))
        data = [i for i, row in enumerate(rows) if row][1:]
        rng = np.random.default_rng(seed)
        k = int(rng.integers(len(data)))
        row = rows[data[k]]
        kind = ["extra", "missing", "token"][seed % (3 if len(row) > 2 else 2)]
        if kind == "extra":
            row.append("1.0")
        elif kind == "missing":
            row.pop()
        else:
            row[2 + int(rng.integers(len(row) - 2))] = "0x1p3"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n" if seed % 2 else "\n").writerows(rows)
        with pytest.raises(ValueError) as info:
            table_from_csv(buf.getvalue())
        assert str(info.value).startswith(f"row {row[0]!r} (data row {k + 1}): ")
        if kind == "token":
            assert "'0x1p3'" in str(info.value)

    @settings(deadline=None)
    @given(token=st.text(st.sampled_from(list("01.eE+-_ \t\x0b\x0c\x1c\x85\xa0\u3000infaxé٣\x00")),
                         max_size=6))
    def test_reads_as_float_matches_loadtxt(self, token):
        dtype = [("id", object), ("v", np.float64, (1,))]
        try:
            np.loadtxt([f"x,{token}"], dtype=dtype, delimiter=",", comments=None, ndmin=1)
            loadtxt_reads = True
        except ValueError:
            loadtxt_reads = False
        assert _reads_as_float(token) == loadtxt_reads

    @settings(deadline=None)
    @given(body=st.text(st.sampled_from(list('ab,"\n\r 1.e-+#_\x00é\tnormalsuspicious'))))
    def test_arbitrary_text_raises_only_value_error(self, body):
        for header in ("", "id,label,a,b\n", "id,label\n"):
            try:
                table_from_csv(header + body)
            except ValueError:
                pass

    def test_unreadable_header_is_value_error(self):
        with pytest.raises(ValueError, match="unreadable header"):
            table_from_csv("id,label," + "a" * 200_000 + "\nx,normal,1\n")

    def test_long_value_token_does_not_hide_the_first_bad_row(self):
        limit = csv.field_size_limit()
        value = "0." + "0" * 200_000 + "1"
        table = table_from_csv(f"id,label,a\nr1,normal,{value}\n")
        assert table.values.tolist() == [[float(value)]]
        assert csv.field_size_limit() == limit
        with pytest.raises(ValueError) as info:
            table_from_csv(f"id,label,a\nr1,normal,{value}\nr2,normal,abc\n")
        assert str(info.value) == "row 'r2' (data row 2): cannot read 'abc' as a number for 'a'"
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("row", ["{long},normal,1", "y,{long},1", '"{long}",normal,abc'],
                             ids=["id", "label", "quoted-id-and-bad-value"])
    def test_id_or_label_over_csv_limit_is_named_by_number(self, row):
        limit = csv.field_size_limit()
        text = "id,label,a\nx,normal,1\n" + row.format(long="n" * (limit + 1)) + "\n"
        with pytest.raises(ValueError) as info:
            table_from_csv(text)
        assert str(info.value) == (
            f"row <unreadable> (data row 2): field larger than field limit ({limit})"
        )
        assert csv.field_size_limit() == limit


class TestSelectFeatures:
    def test_hand_computed_ranking(self):
        table = small_table()
        # f0: means 0.1 vs 1.1, population vars 0.00667 both -> score ~ 75
        # f1: means 5 vs 5, score 0; f2: identical columns, score 0
        ranked = select_features(table, 3)
        assert ranked[0] == "f0"
        # equal zero scores break ties by header order
        assert ranked[1:] == ["f1", "f2"]

    def test_constant_feature_scores_zero_and_ranks_last(self):
        table = small_table()
        assert select_features(table, 3)[-1] == "f2"

    def test_dominant_feature_first(self):
        rng = np.random.default_rng(11)
        rows = []
        for i in range(10):
            noisy = rng.random()
            separ = (0.0 if i < 5 else 10.0) + rng.random() * 0.01
            rows.append([noisy, separ])
        table = FeatureTable(("noise", "sep"), tuple(f"r{i}" for i in range(10)),
                             ("normal",) * 5 + ("suspicious",) * 5, np.array(rows))
        assert select_features(table, 1) == ["sep"]

    def test_duplicating_all_rows_keeps_ranking(self):
        table = small_table()
        doubled = FeatureTable(
            table.names,
            tuple(f"{rid}_{rep}" for rep in range(2) for rid in table.ids),
            table.labels * 2,
            np.vstack([table.values, table.values]),
        )
        assert select_features(table, 3) == select_features(doubled, 3)

    def test_bad_k(self):
        table = small_table()
        with pytest.raises(MammoscopeError, match="k=0 outside 1..3"):
            select_features(table, 0)
        with pytest.raises(MammoscopeError, match="k=4 outside 1..3"):
            select_features(table, 4)

    def test_insufficient_rows(self):
        table = FeatureTable(("a",), ("x", "y", "z"), ("normal", "suspicious", "normal"),
                             np.ones((3, 1)))
        with pytest.raises(MammoscopeError, match="need at least 2 rows per class"):
            select_features(table, 1)
