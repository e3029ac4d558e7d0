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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import bayes
from .config import PipelineConfig
from .errors import (
    DegenerateLabelsError,
    EmptyInputError,
    LengthMismatchError,
    NoNegativesError,
    NoPositivesError,
    TooFewRowsError,
)
from .features import LABELS, NORMAL, SUSPICIOUS, FeatureTable, select_features
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


def _check_labels(labels) -> None:
    for label in labels:
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}")


def confusion(pred, truth) -> ConfusionMatrix:
    """Count the four outcomes of a binary screen (suspicious = positive)."""
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth):
        raise LengthMismatchError(f"{len(pred)} predictions vs {len(truth)} truths")
    if not pred:
        raise EmptyInputError("no cases to tally")
    _check_labels(pred)
    _check_labels(truth)
    counts = Counter(zip(truth, pred))
    return ConfusionMatrix(
        tp=counts[SUSPICIOUS, SUSPICIOUS],
        fp=counts[NORMAL, SUSPICIOUS],
        tn=counts[NORMAL, NORMAL],
        fn=counts[SUSPICIOUS, NORMAL],
    )


def sensitivity(cm: ConfusionMatrix) -> float:
    """True positive rate tp / (tp + fn)."""
    if cm.tp + cm.fn == 0:
        raise NoPositivesError("sensitivity undefined without positive cases")
    return cm.tp / (cm.tp + cm.fn)


def specificity(cm: ConfusionMatrix) -> float:
    """True negative rate tn / (tn + fp)."""
    if cm.tn + cm.fp == 0:
        raise NoNegativesError("specificity undefined without negative cases")
    return cm.tn / (cm.tn + cm.fp)


@dataclass(frozen=True)
class RocCurve:
    """Operating points (fpr, tpr, threshold) from (0,0) to (1,1), plus AUC."""

    points: tuple[tuple[float, float, float], ...]
    auc: float


def _trapezoid_area(points) -> float:
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def roc(scores, truth) -> RocCurve:
    """Sweep the decision threshold over every distinct score.

    A case is called suspicious when score >= threshold (inclusive, same
    rule as the classifier). The initial point uses an infinite threshold
    so the curve is anchored at (0, 0); the lowest score anchors (1, 1).
    """
    scores = np.array(scores, dtype=np.float64)
    truth = list(truth)
    if len(scores) != len(truth):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(truth)} truths")
    _check_labels(truth)
    positive = np.array(truth, dtype=str) == SUSPICIOUS
    n_pos = int(positive.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("ROC needs at least one case of each class")

    order = np.argsort(-scores, kind="stable")
    ranked, hits = scores[order], positive[order]
    change = ranked[1:] != ranked[:-1]  # runs of equal scores share one point
    first, last = np.append(True, change), np.append(change, True)
    tpr = np.cumsum(hits)[last] / n_pos
    fpr = np.cumsum(~hits)[last] / n_neg
    points = [(0.0, 0.0, math.inf), *zip(fpr.tolist(), tpr.tolist(), ranked[first].tolist())]
    return RocCurve(tuple(points), _trapezoid_area(points))


def kfold_indices(table: FeatureTable, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Stratified k-fold (train, test) row indices, deterministic under the seed.

    Rows of each class are shuffled once (normal first, then suspicious)
    and dealt round-robin, so every fold's class count is within one row
    of the global ratio and the test folds partition the table.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = Rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in LABELS:
        indices = [i for i, lab in enumerate(table.labels) if lab == label]
        if len(indices) < k:
            raise TooFewRowsError(f"class {label!r} has {len(indices)} rows, needs >= {k}")
        rng.shuffle(indices)
        for position, row in enumerate(indices):
            folds[position % k].append(row)
    splits = []
    for f in range(k):
        test = sorted(folds[f])
        train = sorted(row for g in range(k) if g != f for row in folds[g])
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class CvResult:
    ids: tuple[str, ...]
    truth: tuple[str, ...]
    scores: tuple[float, ...]
    matrix: ConfusionMatrix
    sens: float
    spec: float
    curve: RocCurve


def run_cross_validation(table: FeatureTable, cfg: PipelineConfig) -> CvResult:
    """Stratified CV, pooling out-of-fold scores into one ROC.

    Feature selection, when configured, runs inside each fold on the
    training rows only. Pooled scores keep the table's row order.
    """
    splits = kfold_indices(table, cfg.cv_folds, cfg.cv_seed)
    pooled = np.empty(table.n_rows)
    for train_rows, test_rows in splits:
        train_table = table.subset(train_rows)
        test_values = table.values[test_rows]
        if cfg.select_k is not None:
            train_table = train_table.select_columns(select_features(train_table, cfg.select_k))
            test_values = test_values[:, [table.names.index(n) for n in train_table.names]]
        pooled[test_rows] = bayes.scores(bayes.train(train_table), test_values)

    truth = tuple(table.labels)
    scores = tuple(pooled.tolist())
    matrix = confusion(bayes.decide(pooled, cfg.classifier_threshold).tolist(), truth)
    return CvResult(
        tuple(table.ids),
        truth,
        scores,
        matrix,
        sensitivity(matrix),
        specificity(matrix),
        roc(scores, truth),
    )


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


def roc_to_svg(curve: RocCurve, size: int = 360, margin: int = 30) -> str:
    """Minimal single-file plot: unit-square axis box plus the curve polyline."""
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
