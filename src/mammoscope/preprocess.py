"""Appearance regularization ahead of feature extraction.

Every image runs one fixed chain: orientation matching, binary background
thresholding, artifact removal by connected-component retention, masking,
and intensity matching; only the threshold is configurable. Each step is a
pure function so the batch runner can process images concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MammoscopeError
from .imgio import GrayImage

# 4-neighborhood: cheapest connectivity that separates diagonal-touching blobs
_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class PreprocessConfig:
    threshold: float = 0.1


def orient(img: GrayImage) -> GrayImage:
    """Mirror the image horizontally when its intensity mass sits on the right.

    The compared halves are the outer floor(width/2) columns on each side;
    the middle column of an odd-width image belongs to neither, which makes
    the rule exactly symmetric under mirroring. Only a strict right excess
    flips, so ties and already-left images pass through unchanged and the
    operation is idempotent.
    """
    half = img.width // 2
    left = float(img.pixels[:, :half].sum())
    right = float(img.pixels[:, img.width - half :].sum())
    if right > left:
        return GrayImage(np.ascontiguousarray(img.pixels[:, ::-1]))
    return img


def largest_component(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 4-connected foreground component.

    Labels, markers and scanner artifacts are separate small components and
    get cleared. An empty mask passes through unchanged. Equal-size ties go
    to the component containing the smallest row-major pixel index.
    """
    from scipy import ndimage  # here, not at module level: only image parsing pays for scipy
    labels, count = ndimage.label(mask, structure=_FOUR_CONNECTED)
    if count < 2:  # an empty mask, or one component: labels == 1 is the mask itself
        return mask
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    # labels are numbered in row-major order of each component's first pixel,
    # so argmax, which takes the first of equal maxima, is the tie-break above
    return labels == np.argmax(sizes)


def normalize_intensity(img: GrayImage) -> GrayImage:
    """Scale so the brightest pixel is exactly 1.0."""
    peak = float(img.pixels.max())
    if peak <= 0.0:
        raise MammoscopeError("image has no positive intensity to normalize")
    return GrayImage(img.pixels / peak)


def preprocess_pipeline(
    img: GrayImage, cfg: PreprocessConfig = PreprocessConfig()
) -> GrayImage:
    """Run the regularization chain on one image; ``>= cfg.threshold`` is foreground."""
    out = orient(img).pixels
    mask = largest_component(out >= cfg.threshold)
    return normalize_intensity(GrayImage(out * mask))
