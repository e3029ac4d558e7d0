"""Tests for the Gaussian naive Bayes classifier and model persistence."""

import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammoscope.bayes import (
    GaussianNbModel,
    VARIANCE_FLOOR,
    _normalize_log_probs,
    classify,
    load_model,
    posterior,
    save_model,
    scores,
    train,
)
from mammoscope.errors import MammoscopeError
from mammoscope.features import FeatureTable, FeatureVector


def make_table(rows):
    names = tuple(f"f{i}" for i in range(len(rows[0][1])))
    return FeatureTable(
        names,
        tuple(f"img{i}" for i in range(len(rows))),
        tuple(label for label, _ in rows),
        np.array([values for _, values in rows], dtype=float),
    )


def single_feature_model(mu_normal=-1.0, mu_susp=1.0, var=1.0):
    return GaussianNbModel(
        ("normal", "suspicious"),
        np.array([0.5, 0.5]),
        ("f0",),
        np.array([[mu_normal], [mu_susp]]),
        np.array([[var], [var]]),
    )


class TestTrain:
    def test_hand_computed_parameters(self):
        table = make_table(
            [
                ("normal", [1.0, 2.0]),
                ("normal", [3.0, 4.0]),
                ("suspicious", [5.0, 6.0]),
                ("suspicious", [9.0, 10.0]),
            ]
        )
        model = train(table)
        assert model.classes == ("normal", "suspicious")
        np.testing.assert_array_equal(model.priors, [0.5, 0.5])
        np.testing.assert_array_equal(model.means, [[2.0, 3.0], [7.0, 8.0]])
        # population variances: normal ((1-2)^2+(3-2)^2)/2 = 1, suspicious 4
        np.testing.assert_array_equal(model.variances, [[1.0, 1.0], [4.0, 4.0]])

    def test_single_row_classes_hit_the_floor(self):
        table = make_table([("normal", [0.0]), ("suspicious", [2.0])])
        model = train(table)
        # per-class variance 0 floors at 1e-9 * global variance (= 1)
        expected_floor = max(1e-9 * 1.0, VARIANCE_FLOOR)
        np.testing.assert_array_equal(model.variances, [[expected_floor]] * 2)
        np.testing.assert_array_equal(model.means, [[0.0], [2.0]])

    def test_prior_ratio(self):
        table = make_table(
            [("normal", [0.0])] * 3 + [("suspicious", [1.0])]
        )
        model = train(table)
        np.testing.assert_array_equal(model.priors, [0.75, 0.25])

    def test_missing_class(self):
        with pytest.raises(MammoscopeError, match="no rows labeled 'suspicious'"):
            train(make_table([("normal", [0.0]), ("normal", [1.0])]))

    def test_empty_table_is_missing_class(self):
        empty = FeatureTable(("f0", "f1"), (), (), np.empty((0, 2)))
        with pytest.raises(MammoscopeError, match="no rows labeled 'normal'"):
            train(empty)


class TestModelCheck:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feature_names", (), "are empty or repeat"),
            ("feature_names", ("a", "a"), "are empty or repeat"),
            ("priors", np.array([np.nan, 0.5]), "non-finite model parameter"),
            ("priors", np.array([0.0, 1.0]), "priors must be positive and sum to 1"),
            ("priors", np.array([0.5, 0.6]), "priors must be positive and sum to 1"),
            ("means", np.array([[np.inf, 0.0], [0.0, 0.0]]), "non-finite model parameter"),
            ("variances", np.array([[np.nan, 1.0], [1.0, 1.0]]), "non-finite model parameter"),
            ("variances", np.array([[VARIANCE_FLOOR / 2, 1.0], [1.0, 1.0]]),
             "variance below floor"),
        ],
        ids=["no-names", "repeated-name", "nan-prior", "zero-prior", "prior-sum",
             "inf-mean", "nan-variance", "variance-below-floor"],
    )
    def test_unscorable_model_is_rejected(self, field, value, message):
        parts = {"classes": ("normal", "suspicious"), "priors": np.array([0.5, 0.5]),
                 "feature_names": ("a", "b"), "means": np.zeros((2, 2)),
                 "variances": np.ones((2, 2))}
        GaussianNbModel(**parts)
        with pytest.raises(MammoscopeError, match=message):
            GaussianNbModel(**(parts | {field: value}))

    @pytest.mark.parametrize("classes", [("suspicious", "normal"), ("normal", "benign")])
    def test_classes_other_than_the_label_order_are_rejected(self, classes):
        parts = {"priors": np.array([0.25, 0.75]), "feature_names": ("a",),
                 "means": np.zeros((2, 1)), "variances": np.ones((2, 1))}
        with pytest.raises(MammoscopeError) as info:
            GaussianNbModel(classes, **parts)
        assert str(info.value) == (
            f"classes {classes} are not in the order ('normal', 'suspicious')"
        )

    def test_train_rejects_overflowing_variance(self):
        table = make_table([("normal", [1e308]), ("normal", [-1e308]),
                            ("suspicious", [1e308]), ("suspicious", [-1e308])])
        with np.errstate(over="ignore"), pytest.raises(MammoscopeError, match="non-finite"):
            train(table)

    def test_train_rejects_a_table_without_features(self):
        empty = FeatureTable((), ("a", "b"), ("normal", "suspicious"), np.empty((2, 0)))
        with pytest.raises(MammoscopeError, match="feature names"):
            train(empty)


class TestPosterior:
    def test_symmetric_model_equidistant_point(self):
        model = single_feature_model()
        probs = posterior(model, FeatureVector(("f0",), np.array([0.0])))
        assert probs["normal"] == pytest.approx(0.5, abs=1e-12)
        assert probs["suspicious"] == pytest.approx(0.5, abs=1e-12)

    def test_hand_evaluated_two_gaussians(self):
        # x = 1: log-lik gap is 2, so P(suspicious) = 1 / (1 + e^-2)
        model = single_feature_model()
        probs = posterior(model, FeatureVector(("f0",), np.array([1.0])))
        assert probs["suspicious"] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            model = GaussianNbModel(
                ("normal", "suspicious"),
                np.array([0.3, 0.7]),
                ("a", "b", "c"),
                rng.standard_normal((2, 3)),
                rng.random((2, 3)) + 0.1,
            )
            probs = posterior(model, FeatureVector(("a", "b", "c"), rng.standard_normal(3)))
            assert abs(sum(probs.values()) - 1.0) <= 1e-12

    def test_never_exactly_zero_or_one(self):
        model = single_feature_model(var=1e-6)
        for x in (-1e9, -1e3, 0.0, 1e3, 1e9):
            probs = posterior(model, FeatureVector(("f0",), np.array([x])))
            for p in probs.values():
                assert 0.0 < p < 1.0

    def test_monotone_toward_suspicious_mean(self):
        model = single_feature_model()
        grid = np.linspace(-6.0, 6.0, 201)
        scores = [
            posterior(model, FeatureVector(("f0",), np.array([x])))["suspicious"]
            for x in grid
        ]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_normalization_offset_invariance(self):
        logp = np.array([-1000.0, -1002.5])
        shifted = _normalize_log_probs(logp)
        np.testing.assert_allclose(
            shifted, _normalize_log_probs(logp + 500.0), atol=1e-15
        )

    def test_feature_mismatch(self):
        model = single_feature_model()
        with pytest.raises(MammoscopeError, match="do not match model"):
            posterior(model, FeatureVector(("other",), np.array([0.0])))


class TestClassify:
    def test_threshold_decisions(self):
        model = single_feature_model()
        x = FeatureVector(("f0",), np.array([0.5]))
        score = posterior(model, x)["suspicious"]
        assert score > 0.5
        assert classify(model, x, 0.5) == ("suspicious", score)
        assert classify(model, x, 0.99)[0] == "normal"

    def test_exact_tie_is_suspicious(self):
        model = single_feature_model()
        x = FeatureVector(("f0",), np.array([0.0]))
        label, score = classify(model, x, 0.5)
        assert score == pytest.approx(0.5, abs=1e-15)
        assert label == "suspicious"

    def test_default_threshold_matches_argmax(self):
        rng = np.random.default_rng(1)
        model = single_feature_model(var=2.0)
        for _ in range(50):
            x = FeatureVector(("f0",), rng.standard_normal(1) * 3)
            probs = posterior(model, x)
            argmax = max(probs, key=probs.get)
            label, _ = classify(model, x, 0.5)
            if probs["suspicious"] != probs["normal"]:
                assert label == argmax


def reference_score(model, x):
    """Suspicious-class posterior of one row, computed the row-at-a-time way."""
    terms = -0.5 * (
        (x - model.means) ** 2 / model.variances + np.log(2.0 * np.pi * model.variances)
    )
    terms = np.maximum(terms, -745.0)
    log_probs = np.log(model.priors) + terms.sum(axis=1)
    shifted = np.exp(log_probs - log_probs.max())
    probs = shifted / shifted.sum()
    probs = np.maximum(probs, 1e-15)
    return (probs / probs.sum())[1]


def random_model(rng, n_features):
    prior = rng.uniform(0.05, 0.95)
    return GaussianNbModel(
        ("normal", "suspicious"),
        np.array([prior, 1.0 - prior]),
        tuple(f"f{i}" for i in range(n_features)),
        rng.normal(0.0, 3.0, (2, n_features)),
        10.0 ** rng.uniform(-12.0, 2.0, (2, n_features)),
    )


class TestBatchScores:
    # 1 to 200 features: below, at and past numpy's 8-wide unrolled and
    # 128-element pairwise summation blocks
    @pytest.mark.parametrize("n_features", [1, 2, 7, 8, 9, 48, 129, 200])
    def test_bit_identical_to_row_reference(self, n_features):
        rng = np.random.default_rng(n_features)
        for _ in range(5):
            model = random_model(rng, n_features)
            center = model.means[rng.integers(0, 2)]
            spread = np.sqrt(model.variances.max(axis=0))
            X = np.vstack([
                center + rng.standard_normal((30, n_features)) * spread,
                center + rng.standard_normal((10, n_features)) * spread * 1e3,
                rng.normal(0.0, 1e8, (10, n_features)),
            ])
            expected = np.array([reference_score(model, x) for x in X])
            got = scores(model, X)
            assert got.shape == (len(X),)
            assert np.array_equal(got, expected)
            for x, s in zip(X, got):
                vec = FeatureVector(model.feature_names, x)
                assert classify(model, vec)[1] == s
                assert posterior(model, vec)["suspicious"] == s

    @settings(deadline=None)
    @given(
        n_features=st.integers(1, 48), n_rows=st.integers(2, 40), seed=st.integers(0, 2**32 - 1)
    )
    def test_scores_ignore_memory_layout(self, n_features, n_rows, seed):
        """An F-ordered matrix, as ``FeatureTable.select_columns`` returns, scores as its
        C-ordered copy and as each of its rows alone, bit for bit."""
        rng = np.random.default_rng(seed)
        prior = rng.uniform(0.25, 0.75)
        means = rng.uniform(-1.0, 1.0, n_features)
        variances = rng.uniform(0.5, 2.0, n_features)
        # classes this close keep every score off the 1e-15 floor, which would hide rounding
        model = GaussianNbModel(
            ("normal", "suspicious"),
            np.array([prior, 1.0 - prior]),
            tuple(f"f{i}" for i in range(n_features)),
            np.stack([means, means + rng.uniform(-0.05, 0.05, n_features)]),
            np.stack([variances, variances * rng.uniform(0.95, 1.05, n_features)]),
        )
        X = rng.uniform(-1.0, 1.0, (n_rows, n_features))
        got = scores(model, X)
        assert ((got > 1e-12) & (got < 1.0 - 1e-12)).all()
        assert np.array_equal(scores(model, np.asfortranarray(X)), got)
        for x, s in zip(X, got):
            assert posterior(model, FeatureVector(model.feature_names, x))["suspicious"] == s

    def test_both_floors_are_exercised(self):
        model = GaussianNbModel(
            ("normal", "suspicious"),
            np.array([0.5, 0.5]),
            ("a", "b"),
            np.array([[0.0, 0.0], [10.0, 10.0]]),
            np.array([[1.0, 1e-12], [1.0, 1e-12]]),
        )
        # row 0: 1e22-sized exponents hit the log-density floor in both classes;
        # rows 1 and 2: one class is > 1e15 times likelier, hitting the probability floor
        X = np.array([[5.0, 1e5], [0.0, 0.0], [10.0, 10.0]])
        got = scores(model, X)
        assert np.array_equal(got, [reference_score(model, x) for x in X])
        assert got[0] == 0.5  # floored b terms cancel; only a, equidistant, is left
        assert got[1] == pytest.approx(1e-15, rel=1e-9)
        assert 1.0 - 2e-15 < got[2] < 1.0

    def test_empty_matrix_and_wrong_width(self):
        model = random_model(np.random.default_rng(0), 3)
        assert scores(model, np.empty((0, 3))).shape == (0,)
        with pytest.raises(MammoscopeError, match="matrix does not match 3 model features"):
            scores(model, np.zeros((4, 2)))


NAMES = st.lists(
    st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8),
    min_size=1, max_size=6, unique=True,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VARIANCE = st.floats(min_value=VARIANCE_FLOOR, allow_infinity=False)


@st.composite
def models(draw):
    names = draw(NAMES)
    n = len(names)
    p = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    return GaussianNbModel(
        ("normal", "suspicious"),
        np.array([p, 1.0 - p]),
        tuple(names),
        np.array(draw(st.lists(FINITE, min_size=2 * n, max_size=2 * n))).reshape(2, n),
        np.array(draw(st.lists(VARIANCE, min_size=2 * n, max_size=2 * n))).reshape(2, n),
    )


@st.composite
def tables(draw):
    names = tuple(draw(NAMES))
    labels = draw(st.lists(st.sampled_from(["normal", "suspicious"]), min_size=2, max_size=12)
                  .filter(lambda ls: len(set(ls)) == 2))
    # half the tables are moderate, so their fits succeed and round-trip; the other half
    # mix in values that square past the largest double, or any finite value
    value = st.floats(-1e6, 1e6)
    if draw(st.booleans()):
        value = st.one_of(value, st.sampled_from([1e300, -1e300]), FINITE)
    values = draw(st.lists(value, min_size=len(labels) * len(names),
                           max_size=len(labels) * len(names)))
    ids = tuple(f"r{i}" for i in range(len(labels)))
    return FeatureTable(names, ids, tuple(labels), np.array(values).reshape(len(labels), -1))


class TestPersistence:
    @settings(deadline=None)
    @given(table=tables())
    def test_trained_model_round_trips(self, table):
        # overflow in the fit is expected here; the model check turns it into an error
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                model = train(table)
            except MammoscopeError:
                return
        saved = save_model(model)
        assert save_model(load_model(saved)) == saved

    @pytest.mark.parametrize("name", ["", "a b", "\u00e9", "a\x0bb", "a\x1cb"],
                             ids=["empty", "space", "non-ascii", "vertical-tab", "file-sep"])
    def test_name_the_file_cannot_hold(self, name):
        model = GaussianNbModel(
            ("normal", "suspicious"), np.array([0.5, 0.5]), ("a", name),
            np.zeros((2, 2)), np.ones((2, 2)),
        )
        # rejected on writing, as reading the file back did
        with pytest.raises(MammoscopeError, match="do not fit a model file"):
            save_model(model)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b"prior normal 0.5", b"prior normal nan", "non-finite model parameter"),
            (b"f0 0.0 ", b"f0 nan ", "non-finite model parameter"),
            (b"f0 0.0 2.5e-10", b"f0 0.0 nan", "non-finite model parameter"),
            (b"prior normal 0.5\n", b"prior normal 0.3\nprior normal 0.5\n",
             "unreadable record 'prior normal 0.5'"),
            (b"prior normal 0.5", b"prior normal 0.5_0", "unreadable record 'prior normal 0.5_0'"),
            (b"f0 0.0 ", b"f0 1_0 ", "unreadable record 'gauss normal f0 1_0 "),
            (b"f0 0.0 2.5e-10", b"f0 0.0 2.5e-1_0",
             "unreadable record 'gauss normal f0 0.0 2.5e-1_0'"),
        ],
        ids=["nan-prior", "nan-mean", "nan-variance", "repeated-prior",
             "separator-prior", "separator-mean", "separator-variance"],
    )
    def test_unscorable_file_rejected(self, old, new, message):
        data = save_model(train(make_table([("normal", [0.0]), ("suspicious", [1.0])])))
        assert data.count(old) == 1
        with pytest.raises(MammoscopeError, match=message):
            load_model(data.replace(old, new))

    @settings(deadline=None)
    @given(model=models())
    def test_round_trip_property(self, model):
        back = load_model(save_model(model))
        assert back.classes == model.classes
        assert back.feature_names == model.feature_names
        for field in ("priors", "means", "variances"):
            got, want = getattr(back, field), getattr(model, field)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_round_trip_exact(self):
        table = make_table(
            [
                ("normal", [0.1234567890123456, 2.0]),
                ("normal", [1.0, 3.5]),
                ("suspicious", [9.75, 1e-6]),
                ("suspicious", [8.5, 2e-6]),
            ]
        )
        model = train(table)
        back = load_model(save_model(model))
        assert back.classes == model.classes
        assert back.feature_names == model.feature_names
        np.testing.assert_array_equal(back.priors, model.priors)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.variances, model.variances)
        assert save_model(back) == save_model(model)

    def test_unknown_version(self):
        data = save_model(train(make_table([("normal", [0.0]), ("suspicious", [1.0])])))
        bumped = data.replace(b"nbmodel v1", b"nbmodel v2", 1)
        with pytest.raises(MammoscopeError, match="unsupported model version 'v2'"):
            load_model(bumped)

    def test_truncated_file(self):
        data = save_model(train(make_table([("normal", [0.0]), ("suspicious", [1.0])])))
        with pytest.raises(MammoscopeError, match="unreadable record"):
            load_model(data[: len(data) // 2])

    def test_garbage_rejected(self):
        with pytest.raises(MammoscopeError, match="empty model file"):
            load_model(b"")
        with pytest.raises(MammoscopeError, match="bad header line"):
            load_model(b"not a model\n")
        data = save_model(train(make_table([("normal", [0.0]), ("suspicious", [1.0])])))
        with pytest.raises(MammoscopeError, match="gauss records inconsistent across classes"):
            load_model(data + b"gauss suspicious extra 0.0 1.0\n")
        with pytest.raises(MammoscopeError, match="priors present for"):
            load_model(data.replace(b"prior normal", b"prior benign", 1))
