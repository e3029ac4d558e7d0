"""Screening quality metrics: confusion counts, ROC/AUC, cross-validation.

The suspicious class is the positive class throughout. ROC uses the
standard axes, false positive rate (1 - specificity) against true
positive rate (sensitivity), because only in that convention does the
trapezoidal area equal the probability that a random positive outscores a
random negative, which is what the tests pin it to.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import bayes
from .config import PipelineConfig
from .errors import MammoscopeError
from .features import LABELS, SUSPICIOUS, FeatureTable, select_features, suspicious_mask
from .rng import Rng


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _tally(called: np.ndarray, positive: np.ndarray) -> ConfusionMatrix:
    """The four outcomes of boolean calls against boolean truth (True = suspicious)."""
    return ConfusionMatrix(
        tp=int(np.count_nonzero(called & positive)),
        fp=int(np.count_nonzero(called & ~positive)),
        tn=int(np.count_nonzero(~called & ~positive)),
        fn=int(np.count_nonzero(~called & positive)),
    )


def sensitivity(cm: ConfusionMatrix) -> float:
    """True positive rate tp / (tp + fn)."""
    if cm.tp + cm.fn == 0:
        raise MammoscopeError("sensitivity undefined without positive cases")
    return cm.tp / (cm.tp + cm.fn)


def specificity(cm: ConfusionMatrix) -> float:
    """True negative rate tn / (tn + fp)."""
    if cm.tn + cm.fp == 0:
        raise MammoscopeError("specificity undefined without negative cases")
    return cm.tn / (cm.tn + cm.fp)


@dataclass(frozen=True)
class RocCurve:
    """Operating points (fpr, tpr, threshold) from (0,0) to (1,1), plus AUC."""

    points: tuple[tuple[float, float, float], ...]
    auc: float


def roc(scores, truth) -> RocCurve:
    """Sweep the decision threshold over every distinct score.

    A case is called suspicious when score >= threshold (inclusive, same
    rule as the classifier). The initial point uses an infinite threshold
    so the curve is anchored at (0, 0); the lowest score anchors (1, 1).
    """
    scores = np.array(scores, dtype=np.float64)
    positive = suspicious_mask(truth)
    if len(scores) != len(positive):
        raise MammoscopeError(f"{len(scores)} scores vs {len(positive)} truths")
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MammoscopeError("ROC needs at least one case of each class")

    order = np.argsort(-scores, kind="stable")
    ranked, hits = scores[order], positive[order]
    change = ranked[1:] != ranked[:-1]  # runs of equal scores share one point
    first, last = np.append(True, change), np.append(change, True)
    tpr = np.cumsum(hits)[last] / n_pos
    fpr = np.cumsum(~hits)[last] / n_neg
    points = [(0.0, 0.0, math.inf), *zip(fpr.tolist(), tpr.tolist(), ranked[first].tolist())]
    # a running sum adds the trapezoids left to right, in the order a loop over points would
    area = np.cumsum(np.diff(fpr, prepend=0.0) * (tpr + np.append(0.0, tpr[:-1])))[-1] / 2.0
    return RocCurve(tuple(points), float(area))


def kfold_indices(table: FeatureTable, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Stratified k-fold (train, test) row indices, deterministic under the seed.

    Rows of each class are shuffled once (normal first, then suspicious)
    and dealt round-robin, so every fold's class count is within one row
    of the global ratio and the test folds partition the table.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = Rng(seed)
    fold = np.empty(table.n_rows, dtype=np.intp)
    for label in LABELS:
        indices = np.flatnonzero(table.suspicious == (label == SUSPICIOUS)).tolist()
        if len(indices) < k:
            raise MammoscopeError(f"class {label!r} has {len(indices)} rows, needs >= {k}")
        rng.shuffle(indices)
        fold[indices] = np.arange(len(indices)) % k
    return [
        (np.flatnonzero(fold != f).tolist(), np.flatnonzero(fold == f).tolist()) for f in range(k)
    ]


@dataclass(frozen=True)
class CvResult:
    truth: tuple[str, ...]
    scores: tuple[float, ...]
    matrix: ConfusionMatrix
    sens: float
    spec: float
    curve: RocCurve


def fit(table: FeatureTable, cfg: PipelineConfig) -> bayes.GaussianNbModel:
    """The one select-then-train step, for ``train`` and every CV fold: the ``select.k``
    Fisher-ranked columns, when set, then one fit; ``model.feature_names`` records them."""
    if cfg.select_k is not None:
        table = table.select_columns(select_features(table, cfg.select_k))
    return bayes.train(table)


def out_of_fold(table: FeatureTable, cfg: PipelineConfig) -> np.ndarray:
    """Each row's score from the model ``fit`` on the other folds' rows, in row order."""
    pooled = np.empty(table.n_rows)
    for train_rows, test_rows in kfold_indices(table, cfg.cv_folds, cfg.cv_seed):
        model = fit(table.subset(train_rows), cfg)
        test = table.subset(test_rows).select_columns(model.feature_names)
        pooled[test_rows] = bayes.scores(model, test.values)
    return pooled


def run_cross_validation(table: FeatureTable, cfg: PipelineConfig) -> CvResult:
    """``out_of_fold`` scores, tallied at the threshold and pooled into one ROC."""
    pooled = out_of_fold(table, cfg)
    called = suspicious_mask(bayes.decide(pooled, cfg.classifier_threshold))
    matrix = _tally(called, table.suspicious)
    return CvResult(table.labels, tuple(pooled.tolist()), matrix, sensitivity(matrix),
                    specificity(matrix), roc(pooled, table.labels))


def predictions_to_csv(ids, scores: np.ndarray, labels: np.ndarray) -> str:
    """``id,score,label`` rows with round-trip scores in the given order, ids csv-quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "score", "label"))
    writer.writerows(zip(ids, map(repr, scores.tolist()), labels.tolist()))
    return buf.getvalue()


def roc_to_csv(curve: RocCurve) -> str:
    lines = ["threshold,fpr,tpr"]
    for fpr, tpr, thr in curve.points:
        lines.append(f"{thr!r},{fpr!r},{tpr!r}")
    return "\n".join(lines) + "\n"


def roc_to_svg(curve: RocCurve) -> str:
    """Minimal single-file plot: unit-square axis box plus the curve polyline."""
    size, margin = 360, 30
    span = size - 2 * margin

    def sx(x: float) -> float:
        return margin + x * span

    def sy(y: float) -> float:
        return size - margin - y * span

    coords = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t, _ in curve.points)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="white" stroke="black"/>\n'
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 4"/>\n'
        f'<polyline points="{coords}" fill="none" stroke="#c0392b" stroke-width="1.5"/>\n'
        f'<text x="{sx(0.5):.2f}" y="{size - 8}" text-anchor="middle" '
        f'font-size="12">false positive rate</text>\n'
        f'<text x="12" y="{sy(0.5):.2f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 12 {sy(0.5):.2f})">true positive rate</text>\n'
        f'<text x="{sx(0.98):.2f}" y="{sy(0.02):.2f}" text-anchor="end" '
        f'font-size="12">AUC = {curve.auc:.4f}</text>\n'
        "</svg>\n"
    )
