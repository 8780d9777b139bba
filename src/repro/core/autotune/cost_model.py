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
matrix and column-wise cumulative sums.  A node whose every distinct value
is a candidate (rows - 1 <= ``max_candidate_splits``, every node of a
16-row retrain) scores each boundary between runs of equal sorted values
straight from the cumulative sums; the general search, which counts the
rows left of each quantile threshold, takes over for larger nodes and
whenever a boundary's midpoint rounds onto its upper value.  Leaf means and
the base error are one ``np.add.reduce`` each.  A fitted tree keeps only
its node lists: ``RegressionTree.predict`` partitions row indices node by
node, and :class:`GradientBoostedTrees` builds the stacked routing arrays
for all its trees at once.  On finite inputs the trees are bit-identical to
the per-feature loop with ``np.mean``/``np.var`` that the whole fit used
before (the reference fit lives in ``tests/cost_model_oracle.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees", "CostModel"]


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


def _boundary_candidates(
    sorted_x: np.ndarray, csum: np.ndarray, csum_sq: np.ndarray, min_leaf: int
) -> Optional[Tuple[np.ndarray, ...]]:
    """Candidates of a node whose every distinct value bounds one.

    The threshold at a boundary between runs of equal sorted values is the
    midpoint of the two values, and the rows left of it are the rows before
    the boundary, so the cumulative sums there score it directly.  That
    holds while the midpoint lies in ``[lower, upper)``; ``None`` when one
    does not (adjacent floats whose midpoint rounds onto the upper value, or
    a sum that overflows), and the general search counts the rows instead.
    """
    n = sorted_x.shape[0]
    lo, hi = sorted_x[:-1], sorted_x[1:]
    thresholds = (lo + hi) / 2.0
    between = (lo <= thresholds) & (thresholds < hi)
    if np.count_nonzero(between) != np.count_nonzero(lo != hi):
        return None
    # A split after sorted row j leaves j + 1 rows on the left.
    keep = slice(min_leaf - 1, n - min_leaf)
    return (
        thresholds[keep],
        between[keep],
        csum[keep],
        csum_sq[keep],
        np.arange(min_leaf, n - min_leaf + 1, dtype=np.float64)[:, None],
    )


def _quantile_candidates(
    sorted_x: np.ndarray,
    csum: np.ndarray,
    csum_sq: np.ndarray,
    min_leaf: int,
    max_candidate_splits: int,
) -> Tuple[np.ndarray, ...]:
    """Candidates at quantile-spaced distinct values, padded to one length.

    Works on the transposed ``(feature, row)`` views, so that the distinct
    values come out feature by feature.
    """
    sorted_x, csum, csum_sq = sorted_x.T, csum.T, csum_sq.T
    d, n = sorted_x.shape
    rows = np.arange(d)[:, None]
    starts = np.empty((d, n), dtype=bool)
    starts[:, 0] = True
    np.not_equal(sorted_x[:, 1:], sorted_x[:, :-1], out=starts[:, 1:])
    counts = starts.sum(axis=1)
    uniques = sorted_x[starts]
    first = (np.cumsum(counts) - counts)[:, None]
    cuts = np.array([_cut_positions(u, max_candidate_splits) for u in counts.tolist()])
    thresholds = (uniques[first + cuts[:, :-1]] + uniques[first + cuts[:, 1:]]) / 2.0
    # Samples left of each threshold (== searchsorted(side="right")).
    lefts = (sorted_x[:, None, :] <= thresholds[:, :, None]).sum(axis=2)
    valid = (cuts[:, 1:] >= 0) & (lefts >= min_leaf) & (lefts <= n - min_leaf)
    lefts = np.where(valid, lefts, 1)
    return (
        thresholds.T,
        valid.T,
        csum[rows, lefts - 1].T,
        csum_sq[rows, lefts - 1].T,
        lefts.T.astype(np.float64),
    )


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
        self, x: np.ndarray, y: np.ndarray, mean: float
    ) -> Optional[Tuple[int, float]]:
        """Return (feature, threshold) of the best split, or None.

        One search covers every feature: column ``f`` of each ``(..., d)``
        array below belongs to feature ``f``.  Candidates are the midpoints
        between quantile-spaced distinct values of a feature; the one with the
        least summed squared error wins within a feature (first on ties), and
        across features a strictly larger gain wins (lowest feature on ties).
        ``mean`` is the node's mean of ``y``.
        """
        n, d = x.shape
        min_leaf = self.min_samples_leaf
        if n < 2 * min_leaf or d == 0:
            return None
        base_err = float(np.add.reduce(np.square(y - mean))) / n * n  # == np.var(y) * n
        features = np.arange(d)
        order = x.argsort(axis=0, kind="mergesort")
        sorted_x = x[order, features]
        sorted_y = y[order]
        csum = sorted_y.cumsum(axis=0)
        csum_sq = np.square(sorted_y).cumsum(axis=0)

        candidates = None
        if n - 1 <= self.max_candidate_splits:
            candidates = _boundary_candidates(sorted_x, csum, csum_sq, min_leaf)
        if candidates is None:
            candidates = _quantile_candidates(
                sorted_x, csum, csum_sq, min_leaf, self.max_candidate_splits
            )
        thresholds, valid, left_sum, left_sq, nl = candidates
        right_sum = csum[-1] - left_sum
        right_sq = csum_sq[-1] - left_sq
        nr = n - nl
        err = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
        err = np.where(valid, err, np.inf)
        idx = err.argmin(axis=0)
        gains = base_err - err[idx, features]
        f = int(np.where(gains > 1e-12, gains, -np.inf).argmax())
        if not gains[f] > 1e-12:
            return None
        return f, float(thresholds[idx[f], f])

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        mean = float(np.add.reduce(y)) / y.shape[0]  # == np.mean(y), bit for bit
        node = self._new_node(mean)
        self._depth = max(self._depth, depth)
        if depth >= self.max_depth:
            return node
        split = self._best_split(x, y, mean)
        if split is None:
            return node
        # The search only returns thresholds with at least min_samples_leaf
        # rows on each side.
        f, thr = split
        left = x[:, f] <= thr
        right = ~left
        self._feature[node] = f
        self._threshold[node] = thr
        self._left[node] = self._build(x[left], y[left], depth + 1)
        self._right[node] = self._build(x[right], y[right], depth + 1)
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
        self._depth = 0
        self._build(x, y, depth=0)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Route all rows through the tree, partitioning them node by node.

        Every row takes exactly the branch the scalar walk would take (the
        same ``<=`` comparisons on the same float64 values), so the output is
        bit-identical to a per-row descent; each node splits the index array
        of the rows that reached it with one vectorised comparison.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if not self._value:
            raise RuntimeError("tree is not fitted")
        out = np.empty(x.shape[0], dtype=np.float64)
        self._route(x, 0, np.arange(x.shape[0]), out)
        return out

    def _route(self, x: np.ndarray, node: int, rows: np.ndarray, out: np.ndarray) -> None:
        f = self._feature[node]
        if f < 0:
            out[rows] = self._value[node]
            return
        go_left = x[rows, f] <= self._threshold[node]
        self._route(x, self._left[node], rows[go_left], out)
        self._route(x, self._right[node], rows[~go_left], out)

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
            if float(np.abs(residual).max()) < 1e-12:
                break
        self._stack_trees()
        return self

    def _stack_trees(self) -> None:
        """Concatenate all trees' node lists into one node pool.

        The ensemble descent then advances *every tree for every row* with a
        single gather per level (``node`` is a ``(trees, rows)`` matrix of
        pool indices), instead of one Python-level predict call per tree.
        Leaves become self-loops (with a dummy feature ``0``), so a fixed
        number of ``node -> child`` steps routes every row to its leaf
        without per-level masking; extra steps past a shallow leaf are no-ops.
        """
        trees = self._trees
        sizes = [t.num_nodes for t in trees]
        offsets = np.cumsum([0] + sizes[:-1])

        def pooled(name: str, dtype) -> np.ndarray:
            return np.array([v for t in trees for v in getattr(t, name)], dtype=dtype)

        feature = pooled("_feature", np.intp)
        leaf = feature < 0
        nodes = np.arange(feature.size, dtype=np.intp)
        pool = np.repeat(offsets, sizes)  # each node's tree offset
        # Children interleaved per node (child[2k] = left, child[2k+1] =
        # right, rebased into the pool): one gather routes a level.
        child = np.empty(2 * feature.size, dtype=np.intp)
        child[0::2] = np.where(leaf, nodes, pooled("_left", np.intp) + pool)
        child[1::2] = np.where(leaf, nodes, pooled("_right", np.intp) + pool)
        self._stacked = (
            np.where(leaf, 0, feature),
            pooled("_threshold", np.float64),
            child,
            pooled("_value", np.float64),
            np.asarray(offsets, dtype=np.intp),
            max(t._depth for t in trees),
        )
        self._row_base: Optional[np.ndarray] = None  # cached per input shape
        self._row_base_shape: Optional[Tuple[int, int]] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble prediction, bit-identical to summing per-tree predicts.

        All trees descend together on the stacked node pool (one fancy-indexed
        gather per level).  One ``np.multiply`` scales every tree's leaf
        values into a ``(trees + 1, rows)`` buffer below the base, and
        ``np.add.accumulate`` down its first axis adds them tree by tree in
        boosting order, exactly like the unstacked loop, so the float
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
        # Row 0 is the base and row t + 1 tree t's scaled leaf values; the
        # running sum down axis 0 adds them in boosting order.
        terms = np.empty((roots.size + 1, n), dtype=np.float64)
        terms[0] = self._base
        np.multiply(self.learning_rate, value[node].reshape(roots.size, n), out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]

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
