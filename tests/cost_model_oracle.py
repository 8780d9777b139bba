"""Reference split search for :class:`repro.core.autotune.RegressionTree`.

This is the per-feature loop the tree used before split search became one
search over all features at once.  It is the oracle the identity tests and
``benchmarks/bench_cost_model.py`` compare against: monkeypatch it in as
``RegressionTree._best_split`` and every tree must come out bit-identical
(same feature, threshold, children and leaf value at every node).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def tree_state(tree) -> tuple:
    """Everything that defines a fitted tree, in a form ``==`` compares bit
    for bit: per node the feature, threshold, children and leaf value."""
    return (
        tuple(tree._feature),
        np.asarray(tree._threshold, dtype=np.float64).tobytes(),
        tuple(tree._left),
        tuple(tree._right),
        np.asarray(tree._value, dtype=np.float64).tobytes(),
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
