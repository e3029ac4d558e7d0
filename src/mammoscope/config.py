"""Flat ``section.key = value`` configuration for the CLI pipeline.

The format is deliberately primitive: one assignment per line, ``#``
comments, no nesting. Unknown keys are errors so typos fail loudly
instead of silently running defaults.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .errors import MammoscopeError
from .features import FEATURE_MODES, FeatureConfig, _plain_number
from .phantom import PhantomConfig
from .preprocess import PreprocessConfig
from .wavelet import FILTER_NAMES


@dataclass(frozen=True)
class PipelineConfig:
    preprocess: PreprocessConfig = PreprocessConfig()
    features: FeatureConfig = FeatureConfig()
    select_k: int | None = None
    classifier_threshold: float = 0.5
    cv_folds: int = 5
    cv_seed: int = 0
    phantom: PhantomConfig = PhantomConfig()


def _parse_bool(raw: str) -> bool:
    if raw not in ("on", "off"):
        raise ValueError(f"expected on/off, got {raw!r}")
    return raw == "on"


_integer = partial(_plain_number, int)


def _finite_float(raw: str) -> float:
    value = _plain_number(float, raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _choice(allowed: tuple[str, ...], raw: str) -> str:
    if raw not in allowed:
        raise ValueError(f"expected one of {allowed}, got {raw!r}")
    return raw


# key -> (PipelineConfig field, attribute of that section or None, parser)
_KEYS = {
    "preprocess.threshold": ("preprocess", "threshold", _finite_float),
    "wavelet.filter": ("features", "filter", partial(_choice, FILTER_NAMES)),
    "wavelet.levels": ("features", "levels", _integer),
    "features.mode": ("features", "mode", partial(_choice, FEATURE_MODES)),
    "select.k": ("select_k", None, _integer),
    "classifier.threshold": ("classifier_threshold", None, _finite_float),
    "cv.k": ("cv_folds", None, _integer),
    "cv.seed": ("cv_seed", None, _integer),
    "phantom.size": ("phantom", "size", _integer),
    "phantom.count_per_class": ("phantom", "count_per_class", _integer),
    "phantom.seed": ("phantom", "seed", _integer),
    "phantom.noise_sigma": ("phantom", "noise_sigma", _finite_float),
    "phantom.mass_amplitude": ("phantom", "mass_amplitude", _finite_float),
    "phantom.mass_radius": ("phantom", "mass_radius", _finite_float),
    "phantom.microcalc_count": ("phantom", "microcalc_count", _integer),
    "phantom.microcalc_amplitude": ("phantom", "microcalc_amplitude", _finite_float),
    "phantom.artifact_label": ("phantom", "artifact_label", _parse_bool),
}


def parse_config(text: str, source: str = "<config>") -> PipelineConfig:
    cfg = PipelineConfig()
    unseen = dict(_KEYS)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MammoscopeError(f"{source}:{lineno}: expected key = value, got {raw_line!r}")
        key, _, raw_value = map(str.strip, line.partition("="))
        if key not in unseen:
            problem = "duplicate" if key in _KEYS else "unknown"
            raise MammoscopeError(f"{source}:{lineno}: {problem} key {key!r}")
        field, attr, parse = unseen.pop(key)
        try:
            value = parse(raw_value)
        except ValueError as exc:
            raise MammoscopeError(f"{source}:{lineno}: {key}: {exc}") from None
        if attr is not None:
            value = replace(getattr(cfg, field), **{attr: value})
        cfg = replace(cfg, **{field: value})
    _validate(cfg, source)
    return cfg


def _validate(cfg: PipelineConfig, source: str) -> None:
    if not 0.0 <= cfg.preprocess.threshold <= 1.0:
        raise MammoscopeError(f"{source}: preprocess.threshold must lie in [0, 1]")
    if cfg.features.levels < 1:
        raise MammoscopeError(f"{source}: wavelet.levels must be >= 1")
    if not 0.0 < cfg.classifier_threshold < 1.0:
        raise MammoscopeError(f"{source}: classifier.threshold must lie in (0, 1)")
    if cfg.cv_folds < 2:
        raise MammoscopeError(f"{source}: cv.k must be >= 2")
    if cfg.select_k is not None and cfg.select_k < 1:
        raise MammoscopeError(f"{source}: select.k must be >= 1")
    try:
        cfg.phantom.validate()
    except ValueError as exc:
        raise MammoscopeError(f"{source}: phantom: {exc}") from None


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 text input, byte-order mark or not, read in universal-newline mode."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise MammoscopeError(f"cannot read {what} {path}: {exc}") from None


def load_config(path: str | None) -> PipelineConfig:
    """Read a config file; None means all defaults."""
    if path is None:
        return PipelineConfig()
    return parse_config(read_text(path, "config"), source=str(path))
