"""Tests for the synthetic image generator."""

import numpy as np
import pytest
from scipy import ndimage

from mammoscope import cli
from mammoscope.features import NORMAL, SUSPICIOUS
from mammoscope.imgio import read_pgm, to_gray, write_pgm
from mammoscope.phantom import PhantomConfig, render_image, render_set

CFG = PhantomConfig(size=64, count_per_class=4, seed=99, mass_radius=8.0)
CFG_TEXT = (
    f"phantom.size = {CFG.size}\nphantom.count_per_class = {CFG.count_per_class}\n"
    f"phantom.seed = {CFG.seed}\nphantom.mass_radius = {CFG.mass_radius}\n"
)

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def breast_mask(pixels):
    """Largest 4-connected region above the default background threshold."""
    labels, _ = ndimage.label(pixels >= 0.1, structure=FOUR)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == sizes.argmax()


def phantom_cli(tmp_path, out):
    """Run ``mammoscope phantom`` with CFG; (name, label) of each PGM it wrote."""
    cfg = tmp_path / "phantom.cfg"
    cfg.write_text(CFG_TEXT)
    assert cli.main(["phantom", "--config", str(cfg), "--out", str(out)]) == 0
    return [(p.name, p.stem.rsplit("_", 1)[1]) for p in sorted(out.glob("*.pgm"))]


class TestDeterminism:
    def test_same_config_same_bytes(self):
        set_a = render_set(CFG)
        set_b = render_set(CFG)
        for (name_a, label_a, img_a), (name_b, label_b, img_b) in zip(set_a, set_b):
            assert (name_a, label_a) == (name_b, label_b)
            assert write_pgm(img_a, 255, binary=True) == write_pgm(img_b, 255, binary=True)

    def test_generate_writes_identical_files(self, tmp_path):
        rows_a = phantom_cli(tmp_path, tmp_path / "a")
        rows_b = phantom_cli(tmp_path, tmp_path / "b")
        assert rows_a == rows_b
        for name, _ in rows_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "manifest.csv").read_text() == (
            tmp_path / "b" / "manifest.csv"
        ).read_text()


class TestSetStructure:
    def test_label_balance_and_manifest(self, tmp_path):
        out = tmp_path / "set"
        rows = phantom_cli(tmp_path, out)
        assert len(rows) == 2 * CFG.count_per_class
        labels = [label for _, label in rows]
        assert labels.count(NORMAL) == CFG.count_per_class
        assert labels.count(SUSPICIOUS) == CFG.count_per_class
        manifest = (out / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "path,label"
        assert len(manifest) == len(rows) + 1
        assert manifest[1:] == [f"{name},{label}" for name, label in rows]
        for name, _ in rows:
            raw = read_pgm((out / name).read_bytes())
            assert (raw.width, raw.height) == (CFG.size, CFG.size)

    def test_pixels_clamped(self):
        for _, _, img in render_set(CFG):
            assert img.pixels.min() >= 0.0
            assert img.pixels.max() <= 1.0

    def test_tissue_sits_on_the_left(self):
        for _, _, img in render_set(CFG):
            w = img.width
            left = img.pixels[:, : w // 2].sum()
            right = img.pixels[:, w - w // 2 :].sum()
            assert left > right


class TestLesions:
    def test_mass_brighter_than_background(self):
        # even suspicious offsets carry the round mass
        index = CFG.count_per_class  # first suspicious image
        img = render_image(CFG, index)
        peak = np.unravel_index(np.argmax(img.pixels), img.pixels.shape)
        rows = np.arange(CFG.size)[:, None]
        cols = np.arange(CFG.size)[None, :]
        disk = (rows - peak[0]) ** 2 + (cols - peak[1]) ** 2 <= CFG.mass_radius**2
        background_mean = img.pixels[~disk & breast_mask(img.pixels)].mean()
        assert img.pixels[disk].max() > background_mean + 3 * CFG.noise_sigma

    def test_normal_has_no_bright_cluster(self):
        for index in range(CFG.count_per_class):
            img = render_image(CFG, index)
            tissue = breast_mask(img.pixels)
            background_mean = img.pixels[tissue].mean()
            bright = (img.pixels > background_mean + 3 * CFG.noise_sigma) & tissue
            labels, count = ndimage.label(bright, structure=FOUR)
            if count:
                sizes = np.bincount(labels.ravel())[1:]
                assert sizes.max() <= 4

    def test_microcalc_image_has_saturated_specks(self):
        index = CFG.count_per_class + 1  # odd suspicious offset
        img = render_image(CFG, index)
        tissue_level = np.median(img.pixels[breast_mask(img.pixels)])
        specks = img.pixels > tissue_level + 0.4
        assert 1 <= specks.sum() <= 2 * CFG.microcalc_count


class TestArtifactFlag:
    def test_corner_rectangle_stamped(self):
        cfg = PhantomConfig(size=64, count_per_class=2, seed=5, mass_radius=8.0,
                            artifact_label=True)
        img = render_image(cfg, 0)
        corner = img.pixels[4:12, 64 - 18 : 64 - 6]
        assert (corner == 0.95).all()

    def test_flag_off_leaves_corner_dark(self):
        img = render_image(CFG, 0)
        assert img.pixels[4:12, 64 - 18 : 64 - 6].max() < 0.5


class TestValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            PhantomConfig(mass_radius=40.0).validate()  # >= size/4
        with pytest.raises(ValueError):
            PhantomConfig(count_per_class=0).validate()
        with pytest.raises(ValueError):
            PhantomConfig(microcalc_count=2).validate()
        with pytest.raises(ValueError):
            PhantomConfig(mass_amplitude=-0.1).validate()
