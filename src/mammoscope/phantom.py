"""Synthetic labeled mammogram-like test images.

Clinical screening archives cannot ship with this repository, so tests and
the demo pipeline run on deterministic phantoms instead: a half-elliptical
tissue region anchored to the left edge with a gentle interior gradient
and Gaussian sensor noise. Suspicious images add either one round bright
mass or a small cluster of microcalcification specks, alternating by
image index. Every draw comes from the seeded generator in
:mod:`mammoscope.rng` with the per-image seed ``seed + index``, so a
config renders to byte-identical files on any machine.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .features import NORMAL, SUSPICIOUS
from .imgio import GrayImage
from .rng import Rng

# upper-right corner stamp used to exercise artifact removal
_LABEL_ROWS = slice(4, 12)
_LABEL_INTENSITY = 0.95


@dataclass(frozen=True)
class PhantomConfig:
    size: int = 128
    count_per_class: int = 20
    seed: int = 7
    noise_sigma: float = 0.02
    mass_amplitude: float = 0.3
    mass_radius: float = 12.0
    microcalc_count: int = 8
    microcalc_amplitude: float = 0.5
    artifact_label: bool = False

    def validate(self) -> None:
        if self.size < 16:
            raise ValueError("size must be >= 16")
        if self.count_per_class < 1:
            raise ValueError("count_per_class must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.mass_amplitude <= 0 or self.microcalc_amplitude <= 0:
            raise ValueError("amplitudes must be positive")
        if not 0 < 4 * self.mass_radius < self.size:  # size / 4 overflows a float past 1e308
            raise ValueError("mass_radius must lie in (0, size/4)")
        if self.microcalc_count < 3:
            raise ValueError("microcalc_count must be >= 3")


def _label_cols(n: int) -> slice:
    return slice(n - 18, n - 6)


def _breast_background(cfg: PhantomConfig, rng: Rng) -> np.ndarray:
    """Half-ellipse of tissue anchored to the left edge.

    Interior level and axes jitter a little per image. The interior
    gradient is kept at the scale of the noise so normal images contain
    no lesion-like bright cluster.
    """
    n = cfg.size
    semi_x = n * (0.60 + 0.06 * (rng.uniform() - 0.5))
    semi_y = n * (0.42 + 0.06 * (rng.uniform() - 0.5))
    level = 0.55 + 0.04 * (rng.uniform() - 0.5)
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    center_y = (n - 1) / 2.0
    e = (cols / semi_x) ** 2 + ((rows - center_y) / semi_y) ** 2
    inside = e < 1.0
    shading = cfg.noise_sigma * (1.0 - e)
    return np.where(inside, level + shading, 0.0)


def _lesion_center(cfg: PhantomConfig, rng: Rng) -> tuple[float, float]:
    # deep inside the tissue so the lesion never touches the breast edge
    row = cfg.size * (0.5 + 0.3 * (rng.uniform() - 0.5))
    col = cfg.size * (0.10 + 0.15 * rng.uniform())
    return row, col


def _add_mass(pixels: np.ndarray, cfg: PhantomConfig, rng: Rng) -> None:
    row_c, col_c = _lesion_center(cfg, rng)
    sigma = cfg.mass_radius / 2.0
    n = cfg.size
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    d2 = (rows - row_c) ** 2 + (cols - col_c) ** 2
    pixels += cfg.mass_amplitude * np.exp(-d2 / (2.0 * sigma**2))


def _add_microcalcs(pixels: np.ndarray, cfg: PhantomConfig, rng: Rng) -> None:
    row_c, col_c = _lesion_center(cfg, rng)
    count = 3 + rng.randrange(cfg.microcalc_count - 2)  # 3..microcalc_count
    n = cfg.size
    for _ in range(count):
        r = int(row_c + (rng.uniform() - 0.5) * 12.0)
        c = int(col_c + (rng.uniform() - 0.5) * 12.0)
        r = min(max(r, 0), n - 1)
        c = min(max(c, 0), n - 2)
        pixels[r, c] += cfg.microcalc_amplitude
        if rng.randrange(2):  # half the specks are two pixels wide
            pixels[r, c + 1] += cfg.microcalc_amplitude


def render_image(cfg: PhantomConfig, index: int) -> GrayImage:
    """Render phantom ``index`` (normals first, then suspicious)."""
    rng = Rng(cfg.seed + index)
    pixels = _breast_background(cfg, rng)
    if index >= cfg.count_per_class:
        lesion = index - cfg.count_per_class
        if lesion % 2 == 0:
            _add_mass(pixels, cfg, rng)
        else:
            _add_microcalcs(pixels, cfg, rng)
    pixels += cfg.noise_sigma * rng.normals(cfg.size * cfg.size).reshape(
        cfg.size, cfg.size
    )
    if cfg.artifact_label:
        pixels[_LABEL_ROWS, _label_cols(cfg.size)] = _LABEL_INTENSITY
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return GrayImage(pixels)


def render_set(cfg: PhantomConfig) -> Iterator[tuple[str, str, GrayImage]]:
    """All 2 * count_per_class phantoms as (filename, label, image) triples, one at a time."""
    cfg.validate()
    for index in range(2 * cfg.count_per_class):
        label = NORMAL if index < cfg.count_per_class else SUSPICIOUS
        yield f"phantom_{index:04d}_{label}.pgm", label, render_image(cfg, index)
