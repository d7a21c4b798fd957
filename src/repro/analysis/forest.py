"""Random-forest classifier with MDI feature importances, from scratch.

§7.2 trains a random forest over labeled devices and ranks features by
mean decrease in impurity (MDI) with 3×5-fold cross-validation.
scikit-learn is not available offline, so this is a compact CART
implementation: Gini impurity, bootstrap bagging, sqrt-feature
subsampling, and per-tree impurity-decrease accounting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


def gini(labels: np.ndarray) -> float:
    """Gini impurity of an integer label array."""
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    return _counts_gini(counts, labels.size)


def _counts_gini(counts: np.ndarray, size: int) -> float:
    """Gini impurity from the counts of the classes present."""
    proportions = counts / size
    return float(1.0 - np.sum(proportions**2))


def _row_gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``gini`` of each row of class ``counts`` (row totals ``sizes``).

    Bit-identical to ``gini`` on the row's labels: that sums the
    squared proportions of the classes present, in class order, and
    ``np.sum`` adds fewer than eight terms one by one from zero, so
    absent classes (adding +0.0) change nothing. From eight classes on
    ``np.sum`` sums pairwise, so each row sums its present classes.
    """
    squares = (counts / sizes[:, None]) ** 2
    if counts.shape[1] < 8:
        total = np.zeros(len(counts))
        for column in squares.T:
            total += column
    else:
        total = np.array(
            [np.sum(row[present]) for row, present in zip(squares, counts > 0)]
        )
    return 1.0 - total


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    prediction: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeClassifier:
    """A CART decision tree (Gini split criterion)."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        max_features: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng or random.Random(0)
        self.root: Optional[_Node] = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray = np.zeros(0)

    # -- fitting ----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.n_features_ = X.shape[1]
        self._importance = np.zeros(self.n_features_)
        self._total_samples = X.shape[0]
        self.root = self._grow(X, y, depth=0)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=int(np.bincount(y).argmax()) if y.size else 0)
        if (
            y.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.unique(y).size <= 1
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, decrease, left_mask = split
        self._importance[feature] += decrease * y.size / self._total_samples
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1)
        node.right = self._grow(X[~left_mask], y[~left_mask], depth + 1)
        return node

    def _candidate_features(self) -> List[int]:
        features = list(range(self.n_features_))
        if self.max_features is not None and self.max_features < len(features):
            features = self.rng.sample(features, self.max_features)
        return features

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[int, float, float, np.ndarray]]:
        """The first split with the largest Gini decrease.

        Candidate thresholds are the midpoints between a feature's
        consecutive distinct values. Each candidate feature is sorted
        once and every threshold is scored from cumulative class
        counts, with the arithmetic of ``gini`` on each side; features
        and thresholds are scanned in order and only a strictly larger
        decrease replaces the best.
        """
        n = y.size
        classes, counts = np.unique(y, return_counts=True)
        parent_impurity = _counts_gini(counts, n)
        if parent_impurity == 0.0:
            return None
        best: Optional[Tuple[int, float, float]] = None
        best_decrease = 1e-12
        for feature in self._candidate_features():
            column = X[:, feature]
            order = np.argsort(column)
            ordered = column[order]
            # The distinct values, ascending (as np.unique would give).
            values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            if values.size <= 1:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            n_left = np.searchsorted(ordered, thresholds, side="right")
            valid = (n_left > 0) & (n_left < n)
            if not valid.any():
                continue
            thresholds = thresholds[valid]
            n_left = n_left[valid]
            # Class counts of the first k sorted samples, for each k.
            cumulative = np.cumsum(y[order][:, None] == classes, axis=0)
            left = cumulative[n_left - 1]
            right = cumulative[-1] - left
            n_right = n - n_left
            weighted = n_left / n * _row_gini(left, n_left) + n_right / n * _row_gini(
                right, n_right
            )
            decrease = parent_impurity - weighted
            index = int(np.argmax(decrease))
            if decrease[index] > best_decrease:
                best_decrease = float(decrease[index])
                best = (feature, float(thresholds[index]), best_decrease)
        if best is None:
            return None
        feature, threshold, decrease = best
        return feature, threshold, decrease, X[:, feature] <= threshold

    # -- prediction ---------------------------------------------------------

    def predict_one(self, row: np.ndarray) -> int:
        node = self.root
        if node is None:
            raise RuntimeError("tree not fitted")
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([self.predict_one(row) for row in X], dtype=int)


class RandomForestClassifier:
    """Bagged CART trees with sqrt-feature subsampling and MDI."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        max_features: str = "sqrt",
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.trees: List[DecisionTreeClassifier] = []
        self.feature_importances_: np.ndarray = np.zeros(0)

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if self.max_features == "all" or self.max_features is None:
            return None
        return int(self.max_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n_samples, n_features = X.shape
        rng = random.Random(self.seed)
        max_features = self._resolve_max_features(n_features)
        self.trees = []
        importances = np.zeros(n_features)
        for i in range(self.n_estimators):
            tree_rng = random.Random(rng.random())
            indices = np.array(
                [tree_rng.randrange(n_samples) for _ in range(n_samples)]
            )
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                rng=tree_rng,
            )
            tree.fit(X[indices], y[indices])
            self.trees.append(tree)
            importances += tree.feature_importances_
        self.feature_importances_ = importances / max(1, len(self.trees))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.stack([tree.predict(X) for tree in self.trees])
        return np.array(
            [np.bincount(votes[:, i]).argmax() for i in range(X.shape[0])],
            dtype=int,
        )

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        predictions = self.predict(X)
        y = np.asarray(y, dtype=int)
        return float((predictions == y).mean())


@dataclass
class CrossValidationResult:
    """Accuracy and MDI importances aggregated over repeated k-fold CV."""

    accuracies: List[float] = field(default_factory=list)
    importances: Optional[np.ndarray] = None  # (runs, n_features)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else 0.0

    def mean_importances(self) -> np.ndarray:
        if self.importances is None:
            return np.zeros(0)
        return self.importances.mean(axis=0)


def cross_validate_forest(
    X: np.ndarray,
    y: np.ndarray,
    *,
    folds: int = 5,
    repeats: int = 3,
    n_estimators: int = 50,
    seed: int = 0,
) -> CrossValidationResult:
    """Repeated k-fold CV, collecting accuracy and MDI per fit (§7.2:
    "we train the classifier three times using 5-fold cross-validation
    (for a total of 15 repetitions)")."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    result = CrossValidationResult()
    importance_rows = []
    rng = random.Random(seed)
    for repeat in range(repeats):
        order = list(range(n))
        rng.shuffle(order)
        fold_sizes = [n // folds + (1 if i < n % folds else 0) for i in range(folds)]
        start = 0
        for fold, size in enumerate(fold_sizes):
            test_idx = np.array(order[start : start + size])
            train_idx = np.array(order[:start] + order[start + size :])
            start += size
            if test_idx.size == 0 or train_idx.size == 0:
                continue
            forest = RandomForestClassifier(
                n_estimators=n_estimators, seed=seed * 1000 + repeat * folds + fold
            )
            forest.fit(X[train_idx], y[train_idx])
            result.accuracies.append(forest.score(X[test_idx], y[test_idx]))
            importance_rows.append(forest.feature_importances_)
    if importance_rows:
        result.importances = np.stack(importance_rows)
    return result
