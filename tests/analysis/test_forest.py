"""From-scratch CART / random forest: correctness and MDI sanity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.forest import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    _row_gini,
    cross_validate_forest,
    gini,
)


def _separable(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 1] > 0).astype(int)
    X[:, 0] = rng.normal(size=n)  # pure noise column
    return X, y


class TestGini:
    def test_pure_labels_zero(self):
        assert gini(np.array([1, 1, 1])) == 0.0

    def test_balanced_binary_half(self):
        assert gini(np.array([0, 1, 0, 1])) == pytest.approx(0.5)

    def test_empty_zero(self):
        assert gini(np.array([], dtype=int)) == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=50))
    def test_bounds(self, labels):
        value = gini(np.array(labels))
        assert 0.0 <= value <= 0.75


class TestDecisionTree:
    def test_fits_separable_data_perfectly(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_importance_concentrates_on_signal(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.feature_importances_[1] > 0.9
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_max_depth_limits_tree(self):
        X, y = _separable()
        stump = DecisionTreeClassifier(max_depth=0).fit(X, y)
        majority = np.bincount(y).argmax()
        assert (stump.predict(X) == majority).all()

    def test_constant_features_fall_back_to_majority(self):
        X = np.zeros((10, 3))
        y = np.array([0] * 7 + [1] * 3)
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == 0).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_one(np.zeros(3))


class TestRandomForest:
    def test_high_train_accuracy(self):
        X, y = _separable(100)
        forest = RandomForestClassifier(n_estimators=20, seed=1).fit(X, y)
        assert forest.score(X, y) >= 0.95

    def test_importances_normalized_and_ranked(self):
        X, y = _separable(100)
        forest = RandomForestClassifier(n_estimators=20, seed=1).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0, abs=0.05)
        assert np.argmax(forest.feature_importances_) == 1

    def test_deterministic_given_seed(self):
        X, y = _separable(50)
        a = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()
        assert np.allclose(a.feature_importances_, b.feature_importances_)

    def test_multiclass(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(90, 3))
        y = np.digitize(X[:, 2], [-0.5, 0.5])
        forest = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
        assert forest.score(X, y) >= 0.9

    def test_max_features_all(self):
        X, y = _separable(40)
        forest = RandomForestClassifier(
            n_estimators=5, max_features="all", seed=0
        ).fit(X, y)
        assert forest.score(X, y) >= 0.9


class TestCrossValidation:
    def test_repeated_kfold_shape(self):
        X, y = _separable(50)
        result = cross_validate_forest(
            X, y, folds=5, repeats=3, n_estimators=10, seed=0
        )
        assert len(result.accuracies) == 15  # §7.2's "15 repetitions"
        assert result.importances.shape == (15, 4)

    def test_generalizes_on_separable_data(self):
        X, y = _separable(80)
        result = cross_validate_forest(
            X, y, folds=5, repeats=1, n_estimators=10, seed=0
        )
        assert result.mean_accuracy >= 0.9

    def test_mean_importances_prefer_signal(self):
        X, y = _separable(80)
        result = cross_validate_forest(
            X, y, folds=5, repeats=1, n_estimators=10, seed=0
        )
        assert np.argmax(result.mean_importances()) == 1


def _reference_best_split(X, y, features):
    """The per-threshold scan ``_best_split`` replaces: a boolean mask
    and two ``gini`` calls for every candidate threshold."""
    parent_impurity = gini(y)
    if parent_impurity == 0.0:
        return None
    best = None
    best_decrease = 1e-12
    n = y.size
    for feature in features:
        column = X[:, feature]
        values = np.unique(column)
        if values.size <= 1:
            continue
        for threshold in (values[:-1] + values[1:]) / 2.0:
            left_mask = column <= threshold
            n_left = int(left_mask.sum())
            if n_left == 0 or n_left == n:
                continue
            weighted = n_left / n * gini(y[left_mask]) + (n - n_left) / n * gini(
                y[~left_mask]
            )
            decrease = parent_impurity - weighted
            if decrease > best_decrease:
                best_decrease = decrease
                best = (feature, float(threshold), decrease, left_mask)
    return best


@st.composite
def split_problems(draw):
    """A small labeled matrix: few distinct values per column (ties
    between thresholds and samples), up to ten classes (the pairwise
    ``np.sum`` regime starts at eight)."""
    n = draw(st.integers(min_value=2, max_value=40))
    n_features = draw(st.integers(min_value=1, max_value=5))
    n_classes = draw(st.integers(min_value=1, max_value=10))
    pool = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    cells = draw(
        st.lists(st.sampled_from(pool), min_size=n * n_features, max_size=n * n_features)
    )
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_classes - 1), min_size=n, max_size=n
        )
    )
    return np.array(cells).reshape(n, n_features), np.array(labels)


class TestBestSplit:
    @settings(max_examples=200, deadline=None)
    @given(problem=split_problems())
    def test_matches_the_per_threshold_scan(self, problem):
        X, y = problem
        tree = DecisionTreeClassifier()
        tree.n_features_ = X.shape[1]
        got = tree._best_split(X, y)
        want = _reference_best_split(X, y, range(X.shape[1]))
        if want is None:
            assert got is None
            return
        assert got[:3] == want[:3]
        assert (got[3] == want[3]).all()

    def test_many_classes_match_the_per_threshold_scan(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 6, size=(60, 3)).astype(float)
        y = rng.integers(0, 12, size=60)
        tree = DecisionTreeClassifier()
        tree.n_features_ = 3
        got = tree._best_split(X, y)
        want = _reference_best_split(X, y, range(3))
        assert got[:3] == want[:3]
        assert (got[3] == want[3]).all()

    def test_first_of_tied_thresholds_wins(self):
        # Splitting off either end sample gives the same decrease.
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 1, 0])
        tree = DecisionTreeClassifier()
        tree.n_features_ = 1
        feature, threshold, _, left = tree._best_split(X, y)
        assert (feature, threshold) == (0, 1.5)
        assert left.tolist() == [True, False, False, False]

    def test_first_of_tied_features_wins(self):
        column = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.stack([column[::-1], column], axis=1)
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier()
        tree.n_features_ = 2
        assert tree._best_split(X, y)[:2] == (0, 2.5)


class TestRowGini:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=60),
            min_size=1,
            max_size=5,
        )
    )
    def test_equals_gini_of_each_row(self, rows):
        classes = np.arange(12)
        counts = np.array([[row.count(c) for c in classes] for row in rows])
        sizes = np.array([len(row) for row in rows])
        got = _row_gini(counts, sizes)
        assert got.tolist() == [gini(np.array(row)) for row in rows]
