"""The shipped cost-model fit builds exactly the trees of the reference fit
(``tests/cost_model_oracle.py``).

Every case fits once as shipped and once on the oracle, then compares every
node's feature, threshold, children and leaf value bit for bit, each tree's
depth, and the predicted scores.  The tuning cases run the tuner once as
shipped and once with the oracle boosting in place of
``GradientBoostedTrees``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    CostModel,
    GradientBoostedTrees,
    Measurer,
    RegressionTree,
    SearchSpace,
    cost_model,
    feature_matrix,
)
from repro.gpusim import GTX_1080TI, V100
from repro.service import TuningRequest
from repro.service.journal import result_to_wire
from tests.cost_model_oracle import OracleBoosting, OracleTree, oracle_fit, tree_state

#: 16, 17 and 18 rows straddle ``max_candidate_splits + 1`` (17), where a
#: node stops having every distinct value as a candidate.
SIZES = (1, 5, 6, 16, 17, 18, 29, 64, 200)
MIN_LEAVES = (1, 2, 3, 5)
NUM_FEATURES = 21


def _with_oracle(monkeypatch, fit):
    """``fit()`` once as shipped and once on the oracle boosting."""
    shipped = fit()
    with monkeypatch.context() as m:
        m.setattr(cost_model, "GradientBoostedTrees", OracleBoosting)
        reference = fit()
    return shipped, reference


def _assert_same_trees(x, y, **tree_kwargs):
    shipped = RegressionTree(**tree_kwargs).fit(x, y)
    reference = OracleTree(**tree_kwargs).fit(x, y)
    assert tree_state(shipped) == tree_state(reference)
    assert shipped.predict(x).tobytes() == reference.predict(x).tobytes()


def _assert_same_ensembles(shipped, reference, x):
    assert [tree_state(t) for t in shipped._trees] == [
        tree_state(t) for t in reference._trees
    ]
    assert shipped.predict(x).tobytes() == reference.predict(x).tobytes()


def _column_kinds(rng, n, max_splits):
    """One column of each awkward kind the split search must agree on."""
    base = float(rng.uniform(-3, 3))
    adjacent = np.where(np.arange(n) % 2 == 0, base, np.nextafter(base, np.inf))
    return [
        rng.uniform(-2, 2, size=n),  # continuous, all distinct
        np.full(n, 1.5),  # constant
        rng.integers(0, 3, size=n).astype(np.float64),  # heavy ties
        rng.integers(-1, 2, size=n) * 0.0,  # signed zeros
        adjacent,  # midpoint of adjacent floats rounds onto an endpoint
        rng.permutation(np.arange(n) % max_splits).astype(np.float64),
        rng.permutation(np.arange(n) % (max_splits + 1)).astype(np.float64),
        rng.permutation(np.arange(n) % (max_splits + 2)).astype(np.float64),
    ]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("min_leaf", MIN_LEAVES)
def test_random_matrices(n, min_leaf):
    rng = np.random.default_rng(1000 * n + min_leaf)
    x = rng.normal(size=(n, NUM_FEATURES))
    y = x[:, 0] - 2.0 * np.abs(x[:, 3]) + rng.normal(scale=0.1, size=n)
    _assert_same_trees(x, y, max_depth=5, min_samples_leaf=min_leaf)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("max_splits", (1, 4, 16))
@pytest.mark.parametrize("min_leaf", MIN_LEAVES)
def test_tie_heavy_columns(n, max_splits, min_leaf):
    rng = np.random.default_rng(7 * n + 31 * max_splits + min_leaf)
    x = np.column_stack(_column_kinds(rng, n, max_splits))
    # Integer targets tie too, so equal gains across features are common.
    y = rng.integers(0, 4, size=n).astype(np.float64)
    _assert_same_trees(
        x,
        y,
        max_depth=6,
        min_samples_leaf=min_leaf,
        max_candidate_splits=max_splits,
    )


@pytest.mark.parametrize("unique_count", (15, 16, 17, 18))
def test_unique_counts_around_candidate_limit(unique_count):
    rng = np.random.default_rng(unique_count)
    n = 64
    x = np.column_stack(
        [rng.permutation(np.arange(n) % unique_count) * 0.25 for _ in range(4)]
    )
    y = rng.normal(size=n)
    _assert_same_trees(x, y, max_depth=4, min_samples_leaf=3, max_candidate_splits=16)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("min_leaf", (1, 3))
def test_single_feature(n, min_leaf):
    rng = np.random.default_rng(n + 100 * min_leaf)
    x = rng.integers(0, 7, size=(n, 1)).astype(np.float64)
    y = np.sin(x[:, 0]) + rng.normal(scale=0.1, size=n)
    _assert_same_trees(x, y, max_depth=4, min_samples_leaf=min_leaf)


@pytest.mark.parametrize("n", (6, 9, 16, 17, 18))
@pytest.mark.parametrize("min_leaf", (1, 2, 3))
def test_midpoint_rounding_onto_the_upper_value(n, min_leaf):
    """Two adjacent floats whose midpoint rounds onto the upper one: the
    threshold between them then counts the upper value's rows as left too,
    so the rows before the boundary are not the split's left side."""
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert (low + high) / 2.0 == high
    rng = np.random.default_rng(10 * n + min_leaf)
    column = rng.permutation(np.array([low, high, 2.0])[np.arange(n) % 3])
    x = np.column_stack([column, rng.normal(size=n)])
    # Only the low rows stand out, so the boundary below high scores best.
    y = np.where(column == low, 1.0, 0.0) + rng.normal(scale=0.01, size=n)
    _assert_same_trees(x, y, max_depth=4, min_samples_leaf=min_leaf)


@pytest.mark.parametrize("sign", (-1.0, 1.0))
@pytest.mark.parametrize("min_leaf", (1, 3))
def test_midpoints_that_overflow(sign, min_leaf):
    """Distinct values so large that the midpoints between the largest
    overflow to -inf or +inf: no row lies left of -inf, and every row lies
    left of +inf."""
    n = 12
    rng = np.random.default_rng(int(sign) + 10 * min_leaf)
    column = sign * rng.permutation(np.linspace(0.6e308, 1.0e308, n))
    x = np.column_stack([column, rng.normal(size=n)])
    # The best boundary, below the three largest values, overflows.
    y = np.where(np.abs(column) > 0.91e308, 1.0, 0.0) + rng.normal(scale=0.01, size=n)
    with np.errstate(over="ignore"):
        _assert_same_trees(x, y, max_depth=4, min_samples_leaf=min_leaf)


@pytest.mark.parametrize("n", (8, 16, 17, 18, 32, 48, 64))
@pytest.mark.parametrize("min_leaf", (1, 3))
@pytest.mark.parametrize("subsample", (0.9, 1.0))
def test_boosted_fit(n, min_leaf, subsample):
    """``GradientBoostedTrees.fit`` against ``oracle_fit``, tree by tree."""
    rng = np.random.default_rng(n * 10 + min_leaf)
    x = rng.normal(size=(n, NUM_FEATURES)).round(1)
    y = x[:, 2] - np.abs(x[:, 5]) + rng.normal(scale=0.1, size=n)
    params = dict(n_estimators=20, min_samples_leaf=min_leaf, subsample=subsample, seed=n)
    shipped = GradientBoostedTrees(**params).fit(x, y)
    _assert_same_ensembles(shipped, oracle_fit(x, y, **params), x)


@pytest.mark.parametrize("n", (16, 17, 18, 29, 48, 64))
@pytest.mark.parametrize("seed", (0, 1))
def test_feature_matrix_rows(monkeypatch, n, seed):
    """Real sampled configurations, boosted with the cost model's defaults
    (row subsampling included)."""
    params = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
    space = SearchSpace(params, V100, "direct", pruned=True)
    measurer = Measurer(params, V100)
    configs = space.sample(random.Random(seed), n)
    times = [
        measurer.time_seconds(c) if measurer.is_feasible(c) else float("inf")
        for c in configs
    ]
    x = feature_matrix(configs, params, V100)

    def fit():
        model = CostModel(min_samples=8, seed=seed)
        assert model.fit(x, times)
        return model

    shipped, reference = _with_oracle(monkeypatch, fit)
    assert isinstance(reference._model, OracleBoosting)
    _assert_same_ensembles(shipped._model, reference._model, x)
    assert shipped.predict_score(x).tobytes() == reference.predict_score(x).tobytes()


#: three cold-stream-style requests (pruned ATE, budget 32) and one unpruned
#: ATE request at budget 64.
TUNING_REQUESTS = (
    TuningRequest(
        params=ConvParams.square(56, 64, 64, kernel=3, stride=1, padding=1),
        spec=V100,
        algorithm="direct",
        max_measurements=32,
        seed=811,
    ),
    TuningRequest(
        params=ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1),
        spec=GTX_1080TI,
        algorithm="winograd",
        max_measurements=32,
        seed=4242,
    ),
    TuningRequest(
        params=ConvParams.square(14, 256, 512, kernel=1, stride=2),
        spec=V100,
        algorithm="direct",
        max_measurements=32,
        seed=97,
    ),
    TuningRequest(
        params=ConvParams.square(14, 256, 256, kernel=3, stride=1, padding=1),
        spec=GTX_1080TI,
        algorithm="direct",
        max_measurements=64,
        seed=1_000_123,
        pruned=False,
    ),
)


@pytest.mark.parametrize("request_", TUNING_REQUESTS, ids=lambda r: r.describe())
def test_tune_direct_unchanged(monkeypatch, request_):
    shipped, reference = _with_oracle(
        monkeypatch, lambda: result_to_wire(request_.tune_direct())
    )
    assert shipped == reference
