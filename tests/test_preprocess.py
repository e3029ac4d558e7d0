"""Tests for orientation, thresholding, artifact removal and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mammoscope.errors import DegenerateImageError, DimensionMismatchError
from mammoscope.imgio import GrayImage
from mammoscope.preprocess import (
    PreprocessConfig,
    apply_mask,
    largest_component,
    normalize_intensity,
    orient,
    preprocess_pipeline,
    threshold,
)


def image(rows):
    return GrayImage(np.array(rows, dtype=float))


class TestOrient:
    def test_right_heavy_is_mirrored(self):
        img = image([[0.0, 0.0, 1.0, 1.0]])
        assert orient(img).pixels.tolist() == [[1.0, 1.0, 0.0, 0.0]]

    def test_left_heavy_is_unchanged(self):
        img = image([[1.0, 1.0, 0.0, 0.0]])
        assert orient(img).pixels.tolist() == img.pixels.tolist()

    def test_symmetric_is_unchanged(self):
        img = image([[0.3, 0.7, 0.7, 0.3], [0.1, 0.5, 0.5, 0.1]])
        assert orient(img).pixels.tolist() == img.pixels.tolist()

    def test_idempotent_and_mirror_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pixels = rng.random((6, 8))
            pixels[:, :4] += 1.0  # force a strict left/right imbalance
            img = GrayImage(pixels)
            mirrored = GrayImage(np.ascontiguousarray(pixels[:, ::-1]))
            once = orient(img)
            assert np.array_equal(orient(once).pixels, once.pixels)
            assert np.array_equal(orient(mirrored).pixels, once.pixels)


class TestThreshold:
    def test_inclusive_boundary(self):
        mask = threshold(image([[0.1, 0.5, 0.9]]), 0.5)
        assert mask.tolist() == [[False, True, True]]

    def test_zero_keeps_everything(self):
        mask = threshold(image([[0.0, 0.2], [0.9, 1.0]]), 0.0)
        assert mask.all()

    def test_one_keeps_only_full_intensity(self):
        mask = threshold(image([[0.999, 1.0]]), 1.0)
        assert mask.tolist() == [[False, True]]


class TestLargestComponent:
    def test_small_component_removed(self):
        bits = np.zeros((13, 12), dtype=bool)
        bits[1:11, 1:11] = True  # 100-pixel block
        bits[12, 9:12] = True  # detached 3-pixel strip
        kept = largest_component(bits)
        assert kept[1:11, 1:11].all()
        assert not kept[12].any()
        assert kept.sum() == 100

    def test_single_component_unchanged(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[1:3, 1:3] = True
        kept = largest_component(bits)
        assert np.array_equal(kept, bits)

    @pytest.mark.parametrize("hole", [False, True], ids=["full", "ring"])
    def test_single_component_keeps_every_bit(self, hole):
        bits = np.ones((6, 7), dtype=bool)
        bits[2:4, 2:5] = not hole
        kept = largest_component(bits)
        assert kept.dtype == bool
        assert np.array_equal(kept, bits)

    def test_equal_size_tie_break_smallest_index(self):
        bits = np.zeros((3, 5), dtype=bool)
        bits[1, 3:5] = True  # appears first in scan order? no: row 1
        bits[2, 0:2] = True
        kept = largest_component(bits)
        # both components have 2 pixels; row 1 holds the smaller flat index
        assert kept[1, 3] and kept[1, 4]
        assert not kept[2, 0]

    def test_diagonal_touch_is_not_connected(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0, 0] = bits[1, 1] = bits[1, 2] = True  # diagonal pair + neighbor
        kept = largest_component(bits)
        assert kept.sum() == 2
        assert not kept[0, 0]

    def test_empty_mask_unchanged(self):
        bits = np.zeros((3, 3), dtype=bool)
        kept = largest_component(bits)
        assert not kept.any()

    @settings(deadline=None, max_examples=300)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.1, 0.9),
    )
    def test_tie_break_matches_first_pixel_rule(self, shape, seed, density):
        """Among the largest components, keep the one whose first row-major pixel comes first."""
        bits = np.random.default_rng(seed).random(shape) < density
        kept = largest_component(bits)
        if not bits.any():
            assert not kept.any()
            return
        four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
        labels, _ = ndimage.label(bits, structure=four)
        sizes = np.bincount(labels.ravel())
        sizes[0] = 0
        candidates = np.flatnonzero(sizes == sizes.max())
        flat = labels.ravel()
        keep = min(candidates, key=lambda lab: int(np.flatnonzero(flat == lab)[0]))
        assert np.array_equal(kept, labels == keep)

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            bits = rng.random((16, 16)) > 0.6
            kept = largest_component(bits)
            assert not (kept & ~bits).any()


class TestApplyMask:
    def test_all_ones_identity(self):
        img = image([[0.1, 0.9], [0.5, 0.2]])
        out = apply_mask(img, np.ones((2, 2), dtype=bool))
        assert np.array_equal(out.pixels, img.pixels)

    def test_all_zeros(self):
        img = image([[0.1, 0.9]])
        out = apply_mask(img, np.zeros((1, 2), dtype=bool))
        assert not out.pixels.any()

    def test_checkerboard(self):
        img = image([[1.0, 1.0], [1.0, 1.0]])
        board = np.array([[True, False], [False, True]])
        out = apply_mask(img, board)
        assert out.pixels.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_mask(image([[1.0]]), np.ones((2, 2), dtype=bool))


class TestNormalizeIntensity:
    def test_exact_scaling(self):
        out = normalize_intensity(image([[0.2, 0.4, 0.5]]))
        assert out.pixels.tolist() == [[0.4, 0.8, 1.0]]

    def test_already_normalized_unchanged(self):
        img = image([[0.25, 1.0], [0.5, 0.0]])
        out = normalize_intensity(img)
        assert np.array_equal(out.pixels, img.pixels)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateImageError):
            normalize_intensity(image([[0.0, 0.0]]))

    def test_max_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            img = GrayImage(rng.random((5, 5)) * 0.7 + 1e-6)
            assert normalize_intensity(img).pixels.max() == 1.0


def _phantom_with_label():
    """Tissue block on the left, bright sticker in the upper-right corner."""
    pixels = np.zeros((24, 24))
    pixels[4:20, 0:10] = 0.6
    pixels[8:12, 2:6] = 0.8
    pixels[2:5, 19:23] = 0.9  # the artifact
    return GrayImage(pixels), (slice(2, 5), slice(19, 23))


class TestPipeline:
    def test_corner_label_removed(self):
        img, label_region = _phantom_with_label()
        out = preprocess_pipeline(img)
        assert not out.pixels[label_region].any()
        assert out.pixels[8:12, 2:6].any()  # tissue retained

    def test_clean_image_is_fixed_point(self):
        pixels = np.zeros((10, 10))
        pixels[2:8, 0:4] = 0.5
        pixels[4, 1] = 1.0
        img = GrayImage(pixels)
        out = preprocess_pipeline(img)
        assert np.array_equal(out.pixels, pixels)

    def test_mirrored_input_same_output(self):
        img, _ = _phantom_with_label()
        mirrored = GrayImage(np.ascontiguousarray(img.pixels[:, ::-1]))
        out_a = preprocess_pipeline(img)
        out_b = preprocess_pipeline(mirrored)
        assert np.array_equal(out_a.pixels, out_b.pixels)

    @pytest.mark.parametrize("cfg", [PreprocessConfig(), PreprocessConfig(orient=False),
                                     PreprocessConfig(artifact_removal=False)])
    def test_input_left_unchanged(self, cfg):
        clean = np.zeros((10, 10))
        clean[2:8, 6:10] = 0.5
        for img in (_phantom_with_label()[0], GrayImage(clean)):
            before = img.pixels.copy()
            preprocess_pipeline(img, cfg)
            assert np.array_equal(img.pixels, before)

    def test_all_below_threshold_degenerates(self):
        img = GrayImage(np.full((4, 4), 0.05))
        with pytest.raises(DegenerateImageError):
            preprocess_pipeline(img, PreprocessConfig(threshold=0.5))

    def test_toggles(self):
        img, label_region = _phantom_with_label()
        out = preprocess_pipeline(img, PreprocessConfig(artifact_removal=False))
        assert out.pixels[label_region].any()  # sticker survives without removal
