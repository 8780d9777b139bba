"""Learned cost model: gradient-boosted regression trees from scratch.

The paper (like TVM) trains an XGBoost model on (configuration, runtime)
pairs and uses it to rank unmeasured configurations.  XGBoost is not
available offline, so this module implements the same idea in NumPy:

* :class:`RegressionTree` — a depth-limited CART tree with quantile-candidate
  splits, squared-error criterion and minimum-leaf-size regularisation;
* :class:`GradientBoostedTrees` — stage-wise boosting of those trees on the
  residuals (squared-error gradient boosting) with shrinkage and optional
  feature/row subsampling;
* :class:`CostModel` — the tuner-facing wrapper: it is trained on *negative
  log runtime* (so "bigger is better" for ranking), refuses to predict until
  it has seen a minimum number of samples, and exposes a ranking helper.

The implementation is vectorised: one split search evaluates all candidate
thresholds of all features at once, from one stable sort of the node's
matrix and column-wise cumulative sums.  On finite inputs the trees are
bit-identical to a per-feature loop (the reference lives in
``tests/cost_model_oracle.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees", "CostModel"]


def _routing_arrays(
    feature: Sequence[int],
    threshold: Sequence[float],
    left: Sequence[int],
    right: Sequence[int],
    value: Sequence[float],
) -> Tuple[np.ndarray, ...]:
    """Flat tree arrays prepared for the level-synchronous descent.

    Leaves become self-loops (``left = right = node`` with a dummy feature
    ``0``), so a fixed number of ``node -> child`` gather steps routes every
    row to its leaf without per-level masking; extra steps past a shallow
    leaf are no-ops.
    """
    feat = np.asarray(feature, dtype=np.intp)
    nodes = np.arange(feat.size, dtype=np.intp)
    leaf = feat < 0
    return (
        np.where(leaf, 0, feat),
        np.asarray(threshold, dtype=np.float64),
        np.where(leaf, nodes, np.asarray(left, dtype=np.intp)),
        np.where(leaf, nodes, np.asarray(right, dtype=np.intp)),
        np.asarray(value, dtype=np.float64),
    )


@functools.lru_cache(maxsize=4096)
def _cut_positions(unique_count: int, max_candidate_splits: int) -> np.ndarray:
    """Which of a feature's sorted distinct values bound its candidate splits.

    At most ``max_candidate_splits + 1`` quantile-spaced positions into the
    distinct values (all of them when few enough), padded with ``-1`` to
    exactly that length; each threshold lies between two consecutive cuts.
    The cached row is read-only.
    """
    if unique_count - 1 > max_candidate_splits:
        qs = np.linspace(0, unique_count - 1, max_candidate_splits + 1)
        cuts = np.unique(qs.astype(int))
    else:
        cuts = np.arange(unique_count)
    row = np.full(max_candidate_splits + 1, -1, dtype=np.intp)
    row[: cuts.size] = cuts
    row.flags.writeable = False
    return row


class RegressionTree:
    """A depth-limited regression tree (CART, squared error)."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        max_candidate_splits: int = 16,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_candidate_splits < 1:
            raise ValueError("max_candidate_splits must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_candidate_splits = max_candidate_splits
        # Flat arrays describing the tree; node 0 is the root.
        self._feature: List[int] = []
        self._threshold: List[float] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._value: List[float] = []
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None
        self._depth = 0

    # ------------------------------------------------------------------ #
    def _new_node(self, value: float) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._value) - 1

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[int, float, float]]:
        """Return (feature, threshold, gain) of the best split, or None.

        One search covers every feature: row ``f`` of each ``(d, ...)``
        array below belongs to feature ``f``.  Candidates are the midpoints
        between quantile-spaced distinct values of a feature; the one with the
        least summed squared error wins within a feature (first on ties), and
        across features a strictly larger gain wins (lowest feature on ties).
        """
        n, d = x.shape
        min_leaf = self.min_samples_leaf
        if n < 2 * min_leaf or d == 0:
            return None
        base_err = float(np.var(y) * n)
        rows = np.arange(d)[:, None]
        order = np.argsort(x.T, axis=1, kind="mergesort")
        sorted_x = x.T[rows, order]
        sorted_y = y[order]
        csum = np.cumsum(sorted_y, axis=1)
        csum_sq = np.cumsum(sorted_y**2, axis=1)

        # Distinct values of every feature, concatenated feature by feature.
        starts = np.empty((d, n), dtype=bool)
        starts[:, 0] = True
        np.not_equal(sorted_x[:, 1:], sorted_x[:, :-1], out=starts[:, 1:])
        counts = starts.sum(axis=1)
        uniques = sorted_x[starts]
        first = (np.cumsum(counts) - counts)[:, None]
        cuts = np.array(
            [_cut_positions(u, self.max_candidate_splits) for u in counts.tolist()]
        )
        thresholds = (uniques[first + cuts[:, :-1]] + uniques[first + cuts[:, 1:]]) / 2.0
        # Samples left of each threshold (== searchsorted(side="right")).
        lefts = (sorted_x[:, None, :] <= thresholds[:, :, None]).sum(axis=2)
        valid = (cuts[:, 1:] >= 0) & (lefts >= min_leaf) & (lefts <= n - min_leaf)
        lefts = np.where(valid, lefts, 1)
        left_sum = csum[rows, lefts - 1]
        left_sq = csum_sq[rows, lefts - 1]
        right_sum = csum[:, -1:] - left_sum
        right_sq = csum_sq[:, -1:] - left_sq
        nl = lefts.astype(np.float64)
        nr = n - nl
        err = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
        err[~valid] = np.inf
        idx = np.argmin(err, axis=1)
        gains = base_err - err[rows[:, 0], idx]
        f = int(np.argmax(np.where(gains > 1e-12, gains, -np.inf)))
        if not gains[f] > 1e-12:
            return None
        return f, float(thresholds[f, idx[f]]), float(gains[f])

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

    # ------------------------------------------------------------------ #
    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n, d) and y must be (n,)")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._arrays = None
        self._depth = 0
        self._build(x, y, depth=0)
        self._arrays = _routing_arrays(
            self._feature, self._threshold, self._left, self._right, self._value
        )
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Route all rows through the tree level by level (vectorised).

        Every row takes exactly the branch the scalar walk would take (the
        same ``<=`` comparisons on the same float64 values), so the output is
        bit-identical to a per-row descent while touching each tree level with
        whole-array gathers instead of a Python loop per sample.  Leaves are
        self-looping in the routing arrays (see :func:`_routing_arrays`), so
        the walk simply runs for the tree depth with no per-level masking.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if not self._value:
            raise RuntimeError("tree is not fitted")
        feature, threshold, left, right, value = self._arrays
        rows = np.arange(x.shape[0])
        node = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            node = np.where(
                x[rows, feature[node]] <= threshold[node], left[node], right[node]
            )
        return value[node]

    @property
    def num_nodes(self) -> int:
        return len(self._value)


class GradientBoostedTrees:
    """Squared-error gradient boosting over :class:`RegressionTree`."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        subsample: float = 0.9,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not (0.0 < learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (0.0 < subsample <= 1.0):
            raise ValueError("subsample must be in (0, 1]")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self._trees: List[RegressionTree] = []
        self._base: float = 0.0
        self._stacked: Optional[Tuple[np.ndarray, ...]] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] != y.shape[0] or x.shape[0] == 0:
            raise ValueError("x and y must be non-empty with matching lengths")
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
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(x[idx], residual[idx])
            update = tree.predict(x)
            pred = pred + self.learning_rate * update
            self._trees.append(tree)
            if float(np.max(np.abs(residual))) < 1e-12:
                break
        self._stack_trees()
        return self

    def _stack_trees(self) -> None:
        """Concatenate all trees' routing arrays into one node pool.

        The ensemble descent then advances *every tree for every row* with a
        single gather per level (``node`` is a ``(trees, rows)`` matrix of
        pool indices), instead of one Python-level predict call per tree.
        """
        offsets = np.cumsum([0] + [t.num_nodes for t in self._trees][:-1])
        feat, thr, left, right, value = (
            np.concatenate(cols)
            for cols in zip(*(t._arrays for t in self._trees))
        )
        pool = np.concatenate(
            [np.full(t.num_nodes, off, dtype=np.intp) for t, off in zip(self._trees, offsets)]
        )
        # Children interleaved per node (child[2k] = left, child[2k+1] =
        # right, rebased into the pool): one gather routes a level.
        child = np.empty(2 * feat.size, dtype=np.intp)
        child[0::2] = left + pool
        child[1::2] = right + pool
        self._stacked = (
            feat,
            thr,
            child,
            value,
            np.asarray(offsets, dtype=np.intp),
            max(t._depth for t in self._trees),
        )
        self._row_base: Optional[np.ndarray] = None  # cached per input shape
        self._row_base_shape: Optional[Tuple[int, int]] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble prediction, bit-identical to summing per-tree predicts.

        All trees descend together on the stacked node pool (one fancy-indexed
        gather per level); the leaf values are then accumulated tree by tree
        in boosting order, exactly like the unstacked loop, so the float
        addition order — and hence the result — is unchanged.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if not self._trees:
            raise RuntimeError("model is not fitted")
        feat, thr, child, value, roots, depth = self._stacked
        n = x.shape[0]
        x_flat = np.ascontiguousarray(x).reshape(-1)
        # Flat (trees * rows) node vector; row r of every tree reads features
        # from x_flat[r * d + feature].  The row offsets only depend on the
        # input shape, so they are cached across same-shaped predicts.
        if self._row_base is None or self._row_base_shape != x.shape:
            self._row_base = np.tile(
                np.arange(0, n * x.shape[1], x.shape[1]), roots.size
            )
            self._row_base_shape = x.shape
        row_base = self._row_base
        node = np.repeat(roots, n)
        for _ in range(depth):
            go_right = x_flat[row_base + feat[node]] > thr[node]
            node = child[node * 2 + go_right]
        leaf_values = value[node].reshape(roots.size, n)
        pred = np.full(n, self._base, dtype=np.float64)
        for t in range(roots.size):
            pred += self.learning_rate * leaf_values[t]
        return pred

    @property
    def num_trees(self) -> int:
        return len(self._trees)


@dataclass
class CostModel:
    """Tuner-facing cost model trained on measured configurations.

    The target is ``-log(runtime)`` so that larger scores mean faster
    configurations; :meth:`rank` sorts candidate feature rows by predicted
    score (descending).  Until ``min_samples`` measurements are available the
    model reports itself as untrained and the explorer falls back to random
    exploration, matching the paper's cold-start behaviour.
    """

    min_samples: int = 8
    n_estimators: int = 60
    learning_rate: float = 0.15
    max_depth: int = 4
    seed: int = 0
    _model: Optional[GradientBoostedTrees] = field(default=None, repr=False)
    _num_samples: int = 0

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    @property
    def num_samples(self) -> int:
        return self._num_samples

    def fit(self, features: np.ndarray, runtimes: Sequence[float]) -> bool:
        """Train on measured runtimes (seconds).  Returns True if trained."""
        runtimes = np.asarray(list(runtimes), dtype=np.float64)
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != runtimes.shape[0]:
            raise ValueError("features and runtimes must have the same length")
        finite = np.isfinite(runtimes) & (runtimes > 0)
        features, runtimes = features[finite], runtimes[finite]
        self._num_samples = int(features.shape[0])
        if self._num_samples < self.min_samples:
            self._model = None
            return False
        target = -np.log(runtimes)
        self._model = GradientBoostedTrees(
            n_estimators=self.n_estimators,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            seed=self.seed,
        ).fit(features, target)
        return True

    def predict_score(self, features: np.ndarray) -> np.ndarray:
        """Predicted ``-log(runtime)`` (higher is better)."""
        if not self.is_trained:
            raise RuntimeError("cost model is not trained yet")
        return self._model.predict(np.asarray(features, dtype=np.float64))

    def predict_runtime(self, features: np.ndarray) -> np.ndarray:
        """Predicted runtime in seconds."""
        return np.exp(-self.predict_score(features))

    def rank(self, features: np.ndarray) -> np.ndarray:
        """Indices of candidate rows sorted from best to worst predicted."""
        scores = self.predict_score(features)
        return np.argsort(-scores, kind="mergesort")
