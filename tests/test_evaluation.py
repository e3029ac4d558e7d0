"""Tests for confusion metrics, ROC/AUC, the CV splitter and pooled CV.

The central oracle is pair counting: trapezoidal area under the threshold
sweep must equal the fraction of positive/negative pairs where the
positive outscores the negative, ties counted one half.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mammoscope import bayes
from mammoscope.config import PipelineConfig
from mammoscope.errors import MammoscopeError
from mammoscope.evaluation import (
    ConfusionMatrix,
    _tally,
    fit,
    kfold_indices,
    out_of_fold,
    predictions_to_csv,
    roc,
    roc_to_csv,
    roc_to_svg,
    run_cross_validation,
    sensitivity,
    specificity,
)
from mammoscope.features import FeatureTable, FeatureVector, select_features
from mammoscope.rng import Rng

N, S = "normal", "suspicious"


def pair_count_auc(scores, truth):
    """Oracle: P(random positive outscores random negative), ties = 1/2."""
    pos = [s for s, t in zip(scores, truth) if t == S]
    neg = [s for s, t in zip(scores, truth) if t == N]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def tally(pred, truth):
    """The four outcomes of predicted against true labels, through the boolean-mask tally."""
    return _tally(np.array(pred) == S, np.array(truth) == S)


def tally_by_hand(pred, truth):
    """Plain-Python oracle for the same four outcomes."""
    pairs = [(p == S, t == S) for p, t in zip(pred, truth)]
    return ConfusionMatrix(
        tp=pairs.count((True, True)),
        fp=pairs.count((True, False)),
        tn=pairs.count((False, False)),
        fn=pairs.count((False, True)),
    )


class TestConfusion:
    def test_all_correct_suspicious(self):
        cm = tally([S] * 5, [S] * 5)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 0, 0, 0)

    def test_complement(self):
        cm = tally([N, S], [S, N])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 1, 0, 1)

    def test_hand_tally_ten_cases(self):
        truth = [S, S, S, S, N, N, N, N, N, N]
        pred = [S, S, N, S, N, S, N, N, S, N]
        cm = tally(pred, truth)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 2, 4, 1)
        assert cm.total == 10


class TestRates:
    def test_worked_sensitivity(self):
        assert sensitivity(ConfusionMatrix(tp=90, fp=0, tn=0, fn=10)) == 0.90

    def test_worked_specificity(self):
        assert specificity(ConfusionMatrix(tp=0, fp=180, tn=720, fn=0)) == 0.80

    def test_boundaries(self):
        assert sensitivity(ConfusionMatrix(3, 0, 0, 0)) == 1.0
        assert sensitivity(ConfusionMatrix(0, 0, 0, 2)) == 0.0
        assert specificity(ConfusionMatrix(0, 0, 4, 0)) == 1.0
        assert specificity(ConfusionMatrix(0, 5, 0, 0)) == 0.0

    def test_undefined(self):
        with pytest.raises(MammoscopeError, match="sensitivity undefined without positive cases"):
            sensitivity(ConfusionMatrix(0, 1, 1, 0))
        with pytest.raises(MammoscopeError, match="specificity undefined without negative cases"):
            specificity(ConfusionMatrix(1, 0, 0, 1))


def reference_roc_points(scores, truth):
    """Threshold sweep one case at a time, highest score first."""
    scores = [float(s) for s in scores]
    n_pos = truth.count(S)
    n_neg = len(truth) - n_pos
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    points = [(0.0, 0.0, math.inf)]
    tp = fp = 0
    i = 0
    while i < len(order):
        value = scores[order[i]]
        while i < len(order) and scores[order[i]] == value:
            if truth[order[i]] == S:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos, value))
    return tuple(points)


class TestRoc:
    def test_points_equal_case_by_case_sweep(self):
        rng = np.random.default_rng(3)
        for n, decimals in [(7, 1), (50, 1), (400, 2), (3000, 17)]:
            scores = np.round(rng.random(n), decimals).tolist()
            scores[:4] = [0.0, -0.0, 0.0, -0.0]  # equal but distinct floats
            truth = [S if v > 0.6 else N for v in rng.random(n)]
            truth[:2] = [S, N]
            points = roc(scores, truth).points
            assert points == reference_roc_points(scores, truth)
            assert [math.copysign(1.0, p[2]) for p in points] == [
                math.copysign(1.0, p[2]) for p in reference_roc_points(scores, truth)
            ]

    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        truth = [S, S, N, N]
        curve = roc(scores, truth)
        assert curve.auc == 1.0
        assert (0.0, 1.0) in {(f, t) for f, t, _ in curve.points}

    def test_all_scores_equal(self):
        curve = roc([0.5, 0.5, 0.5, 0.5], [S, N, S, N])
        assert [(f, t) for f, t, _ in curve.points] == [(0.0, 0.0), (1.0, 1.0)]
        assert curve.auc == 0.5

    def test_anchored_and_monotone(self):
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        truth = [S if v > 0.5 else N for v in rng.random(30)]
        if S not in truth:
            truth[0] = S
        if N not in truth:
            truth[1] = N
        curve = roc(scores, truth)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert (fprs[0], tprs[0]) == (0.0, 0.0)
        assert (fprs[-1], tprs[-1]) == (1.0, 1.0)
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))
        assert curve.points[0][2] == math.inf

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            scores = np.round(rng.random(n), 1)  # heavy ties
            truth = [S if v > 0.4 else N for v in rng.random(n)]
            if S not in truth:
                truth[0] = S
            if N not in truth:
                truth[-1] = N
            curve = roc(scores.tolist(), truth)
            assert abs(curve.auc - pair_count_auc(scores, truth)) < 1e-12

    def test_score_reversal_flips_auc(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.random(25), 1).tolist()
        truth = [S] * 10 + [N] * 15
        forward = roc(scores, truth).auc
        backward = roc([-s for s in scores], truth).auc
        assert abs(forward + backward - 1.0) < 1e-12

    def test_degenerate_labels(self):
        with pytest.raises(MammoscopeError, match="ROC needs at least one case of each class"):
            roc([0.1, 0.2], [S, S])

    def test_length_mismatch(self):
        with pytest.raises(MammoscopeError, match="1 scores vs 2 truths"):
            roc([0.1], [S, N])

    @pytest.mark.parametrize("label", ["suspicious\x00", "normal ", "Suspicious"])
    def test_near_miss_label_rejected(self, label):
        with pytest.raises(ValueError, match="unknown label"):
            roc([0.9, 0.1, 0.5], [S, N, label])

    @pytest.mark.parametrize("n, decimals", [(4, 1), (2000, 2), (3001, 6)])
    def test_auc_recomputes_from_points(self, n, decimals):
        """Bit for bit the left-to-right trapezoid sum over the points, ties included."""
        rng = np.random.default_rng(n)
        scores = rng.random(n).round(decimals)
        truth = [S if t else N for t in np.arange(n) % 2 == 0]
        curve = roc(scores, truth)
        area = 0.0
        for (x0, y0, _), (x1, y1, _) in zip(curve.points, curve.points[1:]):
            area += (x1 - x0) * (y0 + y1) / 2.0
        assert area == curve.auc


@st.composite
def scored_cases(draw):
    """Scores, many of them tied, with both classes among the labels, and a permutation."""
    n = draw(st.integers(2, 40))
    score = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    truth = [S, N] + draw(st.lists(st.sampled_from((S, N)), min_size=n - 2, max_size=n - 2))
    return scores, truth, draw(st.permutations(range(n)))


def _sweep(curve):
    return [(f, t) for f, t, _ in curve.points], curve.auc


class TestRocRelations:
    """The curve depends only on the order of the scores, not on their values or the order
    of the cases."""

    @given(scored_cases())
    def test_unchanged_under_a_dense_rank_of_the_scores(self, case):
        scores, truth, _ = case
        ranks = np.unique(scores, return_inverse=True)[1].astype(np.float64)
        assert _sweep(roc(ranks, truth)) == _sweep(roc(scores, truth))

    @given(scored_cases())
    def test_unchanged_under_a_joint_permutation(self, case):
        scores, truth, order = case
        permuted = roc([scores[i] for i in order], [truth[i] for i in order])
        assert _sweep(permuted) == _sweep(roc(scores, truth))


def one_feature_table(labels):
    """Rows ``r0, r1, ...`` with the given labels and one feature ``f`` holding the row number."""
    n = len(labels)
    return FeatureTable(("f",), tuple(f"r{i}" for i in range(n)), tuple(labels),
                        np.arange(n, dtype=float).reshape(n, 1))


class TestKfold:
    @staticmethod
    def table(n_normal, n_susp):
        return one_feature_table([N] * n_normal + [S] * n_susp)

    @staticmethod
    def fold_labels(table, k, seed):
        return [
            [table.labels[i] for i in test]
            for _, test in kfold_indices(table, k, seed)
        ]

    def test_balanced_folds(self):
        splits = kfold_indices(self.table(10, 10), 5, seed=3)
        assert len(splits) == 5
        for train, test in splits:
            assert len(train) == 16
            assert sorted(train + test) == list(range(20))
        for labels in self.fold_labels(self.table(10, 10), 5, seed=3):
            assert labels.count(N) == 2
            assert labels.count(S) == 2

    def test_same_seed_same_split(self):
        a = kfold_indices(self.table(10, 10), 5, seed=42)
        b = kfold_indices(self.table(10, 10), 5, seed=42)
        assert a == b

    def test_partition(self):
        table = self.table(9, 7)
        seen = []
        for _, test in kfold_indices(table, 3, seed=0):
            seen.extend(table.ids[i] for i in test)
        assert sorted(seen) == sorted(table.ids)
        assert len(set(seen)) == len(seen)

    def test_stratification_within_one_row(self):
        for labels in self.fold_labels(self.table(11, 7), 3, seed=1):
            assert labels.count(N) in (3, 4)
            assert labels.count(S) in (2, 3)

    @staticmethod
    def reference_splits(labels, k, seed):
        """The list-of-folds construction: deal each shuffled class round-robin, then sort."""
        rng = Rng(seed)
        folds = [[] for _ in range(k)]
        for label in (N, S):
            indices = [i for i, lab in enumerate(labels) if lab == label]
            rng.shuffle(indices)
            for position, row in enumerate(indices):
                folds[position % k].append(row)
        return [
            (sorted(row for g in range(k) if g != f for row in folds[g]), sorted(folds[f]))
            for f in range(k)
        ]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_list_of_folds_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_normal, n_susp = (int(n) for n in rng.integers(7, 40, size=2))
        labels = [N] * n_normal + [S] * n_susp
        rng.shuffle(labels)
        table = one_feature_table(labels)
        for k in range(2, 8):
            splits = kfold_indices(table, k, seed)
            assert splits == self.reference_splits(labels, k, seed)
            assert all(type(row) is int for train, test in splits for row in train + test)

    def test_too_few_rows(self):
        with pytest.raises(MammoscopeError, match="class 'normal' has 3 rows, needs >= 5"):
            kfold_indices(self.table(3, 10), 5, seed=0)
        with pytest.raises(ValueError):
            kfold_indices(self.table(5, 5), 1, seed=0)


class TestRocOutputs:
    def test_csv_shape(self):
        curve = roc([0.9, 0.4, 0.6, 0.1], [S, N, S, N])
        text = roc_to_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == len(curve.points) + 1
        assert lines[1].startswith("inf,0.0,0.0")

    def test_svg_contains_polyline(self):
        curve = roc([0.9, 0.4], [S, N])
        svg = roc_to_svg(curve)
        assert svg.startswith("<svg")
        assert "<polyline" in svg and "AUC" in svg


class TestCrossValidation:
    @staticmethod
    def table(seed, n_rows=90, n_features=7):
        rng = np.random.default_rng(seed)
        names = tuple(f"f{i}" for i in range(n_features))
        labels, rows = [], []
        for _ in range(n_rows):
            label = S if rng.random() < 0.4 else N
            shift = 0.8 if label == S else 0.0
            labels.append(label)
            rows.append(rng.standard_normal(n_features) * rng.uniform(0.5, 3.0) + shift)
        return FeatureTable(names, tuple(f"r{i}" for i in range(n_rows)), tuple(labels),
                            np.array(rows))

    @staticmethod
    def per_row_scores(table, cfg):
        """Reference: one FeatureVector and one classify call per test row."""
        pooled = [None] * table.n_rows
        for train_rows, test_rows in kfold_indices(table, cfg.cv_folds, cfg.cv_seed):
            train_table = table.subset(train_rows)
            test_table = table.subset(test_rows)
            if cfg.select_k is not None:
                names = select_features(train_table, cfg.select_k)
                train_table = train_table.select_columns(names)
                test_table = test_table.select_columns(names)
            model = bayes.train(train_table)
            for i, row in enumerate(test_rows):
                vec = FeatureVector(test_table.names, test_table.values[i])
                pooled[row] = bayes.classify(model, vec, cfg.classifier_threshold)[1]
        return tuple(pooled)

    @pytest.mark.parametrize("select_k", [None, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pooled_scores_equal_per_row_classify(self, seed, select_k):
        table = self.table(seed)
        cfg = replace(PipelineConfig(), cv_folds=4, cv_seed=seed, select_k=select_k)
        result = run_cross_validation(table, cfg)
        expected = self.per_row_scores(table, cfg)
        assert np.array_equal(result.scores, expected)
        assert np.array_equal(out_of_fold(table, cfg), expected)
        assert all(type(s) is float for s in result.scores)
        assert result.truth == table.labels
        pred = [S if s >= cfg.classifier_threshold else N for s in expected]
        assert result.matrix == tally_by_hand(pred, table.labels)
        assert result.curve == roc(expected, table.labels)

    @pytest.mark.parametrize("select_k", [None, 3, 7])
    def test_fit_selects_then_trains(self, select_k):
        table = self.table(0)
        model = fit(table, replace(PipelineConfig(), select_k=select_k))
        names = table.names if select_k is None else select_features(table, select_k)
        expected = bayes.train(table.select_columns(names))
        assert model.feature_names == tuple(names)
        assert bayes.save_model(model) == bayes.save_model(expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_at_a_threshold_equal_to_a_score(self, seed):
        """The pooled tally calls a score equal to the threshold suspicious, as decide does."""
        table = self.table(seed)
        cfg = replace(PipelineConfig(), cv_folds=4, cv_seed=seed)
        scores = run_cross_validation(table, cfg).scores
        inner = sorted(s for s in scores if 0.0 < s < 1.0)
        t = inner[len(inner) // 2]
        result = run_cross_validation(table, replace(cfg, classifier_threshold=t))
        assert result.scores == scores
        assert result.matrix == tally_by_hand(bayes.decide(np.array(scores), t), table.labels)
        assert result.matrix.tp + result.matrix.fp == sum(s >= t for s in scores)


class TestPredictionsCsv:
    def test_rows_in_order_with_round_trip_scores(self):
        scores = np.array([0.1, 2.0 / 3.0, 0.5])
        labels = bayes.decide(scores, 0.5)
        text = predictions_to_csv(("a", "b", "c"), scores, labels)
        assert text == (
            "id,score,label\n"
            "a,0.1,normal\n"
            f"b,{2.0 / 3.0!r},suspicious\n"
            "c,0.5,suspicious\n"
        )

    def test_ids_quoted_by_csv_rules(self):
        ids = ("a,b", 'say "hi"', "line\nbreak", "é.pgm", "#lead")
        scores = np.array([0.25, 0.5, 0.75, 0.125, 0.875])
        text = predictions_to_csv(ids, scores, bayes.decide(scores, 0.5))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["id", "score", "label"]
        assert all(len(r) == 3 for r in rows)
        assert tuple(r[0] for r in rows[1:]) == ids
        assert [float(r[1]) for r in rows[1:]] == scores.tolist()
