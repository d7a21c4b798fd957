"""Statistical helpers: imputation, scaling, Spearman correlations."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def impute_median(X: np.ndarray) -> np.ndarray:
    """Replace NaNs column-wise with the column median (§7.2)."""
    X = np.array(X, dtype=float, copy=True)
    for column in range(X.shape[1]):
        col = X[:, column]
        mask = np.isnan(col)
        if mask.any():
            valid = col[~mask]
            fill = float(np.median(valid)) if valid.size else 0.0
            col[mask] = fill
    return X


def zscore(X: np.ndarray) -> np.ndarray:
    """Column-wise standardization; constant columns become zeros."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std_safe = np.where(std == 0, 1.0, std)
    return (X - mean) / std_safe


def spearman_pair(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Spearman's rank correlation (r_s, p) between two feature vectors.

    Identical vectors have zero variance, where scipy returns NaN; the
    paper reports r_s = 1.00 for devices with exactly equal features, so
    that convention is applied here.
    """
    # scipy.stats takes ~1 s to import and only §7.4 reaches this.
    from scipy import stats as scipy_stats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.allclose(a, b):
        return 1.0, 0.0
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0, 1.0
    r, p = scipy_stats.spearmanr(a, b)
    if np.isnan(r):
        return 0.0, 1.0
    return float(r), float(p)


def pairwise_group_correlation(
    X: np.ndarray, indices_a: Sequence[int], indices_b: Optional[Sequence[int]] = None
) -> Tuple[float, float]:
    """Average pairwise Spearman correlation within a group (or between
    two groups), as §7.4 reports per vendor.

    Only *distinct* row pairs count: a row is never correlated with
    itself (the trivial r_s = 1.0 would inflate between-group averages
    whenever the groups overlap), and each unordered pair contributes
    once even if it is reachable from both directions. A group with no
    valid pairs — a singleton within-group call, or between-groups whose
    overlap leaves no distinct pair — has no defined average and returns
    ``(nan, nan)``.
    """
    rows_a = list(indices_a)
    rows_b = list(indices_b) if indices_b is not None else rows_a
    correlations: List[float] = []
    p_values: List[float] = []
    seen_pairs = set()
    for i in rows_a:
        for j in rows_b:
            if i == j:
                continue
            pair = (i, j) if i < j else (j, i)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            r, p = spearman_pair(X[i], X[j])
            correlations.append(r)
            p_values.append(p)
    if not correlations:
        return float("nan"), float("nan")
    return float(np.mean(correlations)), float(np.mean(p_values))
