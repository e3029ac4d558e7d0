"""Two-class Gaussian naive Bayes over named scalar features.

Class posteriors follow Bayes' rule with conditionally independent
features, each a Gaussian fitted by population mean and variance. A model,
read or fitted, that cannot score rows raises MammoscopeError. Evaluation
happens in log space, each log-density term floored near the smallest
representable magnitude, and the normalized posteriors are kept strictly
inside (0, 1) so downstream ratio work never sees an exact 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MammoscopeError
from .features import LABELS, NORMAL, SUSPICIOUS, FeatureTable, FeatureVector, _plain_number

MODEL_VERSION = 1

VARIANCE_FLOOR = 1e-12
_LOG_DENSITY_FLOOR = -745.0  # near log of the smallest positive double
_PROB_FLOOR = 1e-15


@dataclass(frozen=True)
class GaussianNbModel:
    """Per-class priors and per-feature Gaussians, checked on construction."""

    classes: tuple[str, str]
    priors: np.ndarray  # shape (2,)
    feature_names: tuple[str, ...]
    means: np.ndarray  # shape (2, n_features)
    variances: np.ndarray  # shape (2, n_features)

    def __post_init__(self):
        if self.classes != LABELS:  # scores and save_model index the classes in this order
            raise MammoscopeError(f"classes {self.classes} are not in the order {LABELS}")
        if not self.feature_names or len(set(self.feature_names)) != len(self.feature_names):
            raise MammoscopeError(f"feature names {self.feature_names} are empty or repeat")
        if not all(np.isfinite(a).all() for a in (self.priors, self.means, self.variances)):
            raise MammoscopeError("non-finite model parameter")
        if self.priors.min() <= 0.0 or abs(self.priors.sum() - 1.0) > 1e-12:
            raise MammoscopeError("priors must be positive and sum to 1")
        if self.variances.min() < VARIANCE_FLOOR:
            raise MammoscopeError(f"variance below floor {VARIANCE_FLOOR}")


def train(table: FeatureTable) -> GaussianNbModel:
    """Fit priors and per-class Gaussians from a labeled feature table.

    Variances are population variances, floored per feature at
    max(1e-9 * global feature variance, 1e-12) so single-row classes stay
    usable.
    """
    per_class = [table.values[~table.suspicious], table.values[table.suspicious]]
    for label, rows in zip(LABELS, per_class):
        if len(rows) == 0:
            raise MammoscopeError(f"no rows labeled {label!r}")
    priors = np.array([len(rows) / table.n_rows for rows in per_class])
    floor = np.maximum(1e-9 * table.values.var(axis=0), VARIANCE_FLOOR)
    means = np.stack([rows.mean(axis=0) for rows in per_class])
    variances = np.stack([np.maximum(rows.var(axis=0), floor) for rows in per_class])
    return GaussianNbModel(LABELS, priors, table.names, means, variances)


def _normalize_log_probs(log_probs: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, each probability floored at 1e-15."""
    shifted = np.exp(log_probs - log_probs.max(axis=-1, keepdims=True))
    probs = shifted / shifted.sum(axis=-1, keepdims=True)
    probs = np.maximum(probs, _PROB_FLOOR)
    return probs / probs.sum(axis=-1, keepdims=True)


def _class_probs(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """P(class | row) for every row of an (n, f) matrix, shape (n, 2)."""
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise MammoscopeError(
            f"{X.shape} matrix does not match {len(model.feature_names)} model features"
        )
    # (n, 2, f): the per-feature sum runs over the contiguous last axis,
    # the same reduction as for a single row, so scores do not depend on n
    terms = -0.5 * (
        (X[:, None, :] - model.means) ** 2 / model.variances
        + np.log(2.0 * np.pi * model.variances)
    )
    terms = np.maximum(terms, _LOG_DENSITY_FLOOR)
    return _normalize_log_probs(np.log(model.priors) + terms.sum(axis=-1))


def scores(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """Suspicious-class posterior of every row of an (n, f) feature matrix.

    Columns follow ``model.feature_names``; the result has shape (n,).
    """
    return _class_probs(model, X)[:, LABELS.index(SUSPICIOUS)]


def decide(score, threshold: float) -> np.ndarray:
    """Label per score; inclusive, so a score equal to the threshold is suspicious."""
    return np.where(np.asarray(score) >= threshold, SUSPICIOUS, NORMAL)


def posterior(model: GaussianNbModel, x: FeatureVector) -> dict[str, float]:
    """P(class | x) for both classes; values sum to 1."""
    if x.names != model.feature_names:
        raise MammoscopeError(
            f"feature names {x.names} do not match model {model.feature_names}"
        )
    probs = _class_probs(model, x.values[None, :])[0]
    return {label: float(p) for label, p in zip(model.classes, probs)}


def classify(
    model: GaussianNbModel, x: FeatureVector, threshold: float = 0.5
) -> tuple[str, float]:
    """Label plus suspicious-class score for ROC sweeping.

    The default threshold 0.5 reduces to the largest-posterior rule;
    comparison is inclusive, so an exact tie classifies as suspicious.
    """
    score = posterior(model, x)[SUSPICIOUS]
    return str(decide(score, threshold)), score


def save_model(model: GaussianNbModel) -> bytes:
    """Line-oriented text encoding with full round-trip float precision;
    each feature name must be one ASCII token, as :func:`load_model` splits."""
    if not all(name.isascii() and name.split() == [name] for name in model.feature_names):
        raise MammoscopeError(f"feature names {model.feature_names} do not fit a model file")
    lines = [f"nbmodel v{MODEL_VERSION}"]
    for label, prior in zip(model.classes, model.priors):
        lines.append(f"prior {label} {float(prior)!r}")
    for c, label in enumerate(model.classes):
        for f, name in enumerate(model.feature_names):
            lines.append(
                f"gauss {label} {name} {float(model.means[c, f])!r} "
                f"{float(model.variances[c, f])!r}"
            )
    return ("\n".join(lines) + "\n").encode("ascii")


def load_model(data: bytes) -> GaussianNbModel:
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise MammoscopeError("model file is not ASCII text") from None
    if not lines:
        raise MammoscopeError("empty model file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "nbmodel" or not head[1].startswith("v"):
        raise MammoscopeError(f"bad header line {lines[0]!r}")
    if head[1] != f"v{MODEL_VERSION}":
        raise MammoscopeError(f"unsupported model version {head[1]!r}")

    priors: dict[str, float] = {}
    gauss: dict[str, list[tuple[str, float, float]]] = {label: [] for label in LABELS}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] == "prior" and len(parts) == 3 and parts[1] not in priors:
                priors[parts[1]] = _plain_number(float, parts[2])
            elif parts[0] == "gauss" and len(parts) == 5:
                mean, variance = (_plain_number(float, token) for token in parts[3:])
                gauss[parts[1]].append((parts[2], mean, variance))
            else:
                raise MammoscopeError(f"unreadable record {line!r}")
        except (ValueError, KeyError):
            raise MammoscopeError(f"unreadable record {line!r}") from None

    if set(priors) != set(LABELS):
        raise MammoscopeError(f"priors present for {sorted(priors)}, need {LABELS}")
    prior_values = np.array([priors[label] for label in LABELS])

    name_lists = [tuple(name for name, _, _ in gauss[label]) for label in LABELS]
    if name_lists[0] != name_lists[1]:
        raise MammoscopeError("gauss records inconsistent across classes")

    means = np.array([[m for _, m, _ in gauss[label]] for label in LABELS])
    variances = np.array([[v for _, _, v in gauss[label]] for label in LABELS])
    return GaussianNbModel(LABELS, prior_values, name_lists[0], means, variances)
