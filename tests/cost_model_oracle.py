"""Reference fit for :mod:`repro.core.autotune.cost_model`.

This is the whole cost-model fit as it was before split search became one
search over all features at once, kept verbatim as the oracle the identity
tests and ``benchmarks/bench_cost_model.py`` compare against:

* :class:`OracleTree` — the recursive build with ``np.mean`` leaf values and
  the per-feature split loop with ``np.var`` (:func:`oracle_best_split`),
  predicting with a per-row walk;
* :class:`OracleBoosting` / :func:`oracle_fit` — ``GradientBoostedTrees.fit``
  with its per-tree ``predict`` over all rows.

The shipped fit must build bit-identical trees (same feature, threshold,
children and leaf value at every node, and the same depth) and predict
bit-identical scores.  ``OracleBoosting`` takes ``GradientBoostedTrees``'s
constructor, so a test can monkeypatch it in under that name and run the
tuner on the oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def tree_state(tree) -> tuple:
    """Everything that defines a fitted tree, in a form ``==`` compares bit
    for bit: per node the feature, threshold, children and leaf value, then
    the tree's depth."""
    return (
        tuple(tree._feature),
        np.asarray(tree._threshold, dtype=np.float64).tobytes(),
        tuple(tree._left),
        tuple(tree._right),
        np.asarray(tree._value, dtype=np.float64).tobytes(),
        tree._depth,
    )


def oracle_best_split(
    self, x: np.ndarray, y: np.ndarray
) -> Optional[Tuple[int, float, float]]:
    """Return (feature, threshold, gain) of the best split, or None."""
    n, d = x.shape
    if n < 2 * self.min_samples_leaf:
        return None
    base_err = float(np.var(y) * n)
    best: Optional[Tuple[int, float, float]] = None
    for f in range(d):
        col = x[:, f]
        order = np.argsort(col, kind="mergesort")
        sorted_col = col[order]
        sorted_y = y[order]
        # Candidate thresholds at quantiles between distinct values.
        uniques = np.unique(sorted_col)
        if uniques.size < 2:
            continue
        if uniques.size - 1 > self.max_candidate_splits:
            qs = np.linspace(0, uniques.size - 1, self.max_candidate_splits + 1)
            cut_values = uniques[np.unique(qs.astype(int))]
        else:
            cut_values = uniques
        thresholds = (cut_values[:-1] + cut_values[1:]) / 2.0

        csum = np.cumsum(sorted_y)
        csum_sq = np.cumsum(sorted_y**2)
        total = csum[-1]
        total_sq = csum_sq[-1]
        # Position of each threshold: number of samples on the left.
        lefts = np.searchsorted(sorted_col, thresholds, side="right")
        valid = (lefts >= self.min_samples_leaf) & (
            lefts <= n - self.min_samples_leaf
        )
        if not np.any(valid):
            continue
        lefts = lefts[valid]
        thr = thresholds[valid]
        left_sum = csum[lefts - 1]
        left_sq = csum_sq[lefts - 1]
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        nl = lefts.astype(np.float64)
        nr = n - nl
        err = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
        idx = int(np.argmin(err))
        gain = base_err - float(err[idx])
        if gain > 1e-12 and (best is None or gain > best[2]):
            best = (f, float(thr[idx]), gain)
    return best


class OracleTree:
    """The regression tree's fit before the all-features split search."""

    _best_split = oracle_best_split

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        max_candidate_splits: int = 16,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_candidate_splits = max_candidate_splits
        self._feature: List[int] = []
        self._threshold: List[float] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._value: List[float] = []
        self._depth = 0

    def _new_node(self, value: float) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._value) - 1

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        node = self._new_node(float(np.mean(y)))
        self._depth = max(self._depth, depth)
        if depth >= self.max_depth:
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        f, thr, _ = split
        mask = x[:, f] <= thr
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        self._feature[node] = f
        self._threshold[node] = thr
        self._left[node] = self._build(x[mask], y[mask], depth + 1)
        self._right[node] = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OracleTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._build(x, y, depth=0)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """One scalar descent per row."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[0], dtype=np.float64)
        for r in range(x.shape[0]):
            node = 0
            while self._feature[node] >= 0:
                if x[r, self._feature[node]] <= self._threshold[node]:
                    node = self._left[node]
                else:
                    node = self._right[node]
            out[r] = self._value[node]
        return out


class OracleBoosting:
    """``GradientBoostedTrees`` fitted with :class:`OracleTree`, tree by tree."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        subsample: float = 0.9,
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self._trees: List[OracleTree] = []
        self._base = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OracleBoosting":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._trees = []
        self._base = float(np.mean(y))
        pred = np.full_like(y, self._base)
        n = x.shape[0]
        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0 and n > 8:
                idx = rng.choice(n, size=max(4, int(n * self.subsample)), replace=False)
            else:
                idx = np.arange(n)
            tree = OracleTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(x[idx], residual[idx])
            update = tree.predict(x)
            pred = pred + self.learning_rate * update
            self._trees.append(tree)
            if float(np.max(np.abs(residual))) < 1e-12:
                break
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The base plus every tree's shrunk prediction, in boosting order."""
        x = np.asarray(x, dtype=np.float64)
        pred = np.full(x.shape[0], self._base, dtype=np.float64)
        for tree in self._trees:
            pred += self.learning_rate * tree.predict(x)
        return pred


def oracle_fit(x: np.ndarray, y: np.ndarray, **params) -> OracleBoosting:
    """``GradientBoostedTrees(**params).fit(x, y)`` as the oracle computes it."""
    return OracleBoosting(**params).fit(x, y)
