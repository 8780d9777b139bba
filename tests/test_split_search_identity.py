"""The all-features split search builds exactly the trees of the per-feature
reference loop (``tests/cost_model_oracle.py``).

Every case fits once with ``RegressionTree._best_split`` as shipped and once
with the oracle monkeypatched in, then compares every node's feature,
threshold, children and leaf value bit for bit, plus the predicted scores.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    CostModel,
    Measurer,
    RegressionTree,
    SearchSpace,
    feature_matrix,
)
from repro.gpusim import GTX_1080TI, V100
from repro.service import TuningRequest
from repro.service.journal import result_to_wire
from tests.cost_model_oracle import oracle_best_split, tree_state

SIZES = (1, 5, 6, 16, 29, 64, 200)
MIN_LEAVES = (1, 2, 3, 5)
NUM_FEATURES = 21


def _with_oracle(monkeypatch, fit):
    """``fit()`` once as shipped and once on the oracle split search."""
    shipped = fit()
    with monkeypatch.context() as m:
        m.setattr(RegressionTree, "_best_split", oracle_best_split)
        reference = fit()
    return shipped, reference


def _assert_same_trees(monkeypatch, x, y, **tree_kwargs):
    def fit():
        return RegressionTree(**tree_kwargs).fit(x, y)

    shipped, reference = _with_oracle(monkeypatch, fit)
    assert tree_state(shipped) == tree_state(reference)
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
def test_random_matrices(monkeypatch, n, min_leaf):
    rng = np.random.default_rng(1000 * n + min_leaf)
    x = rng.normal(size=(n, NUM_FEATURES))
    y = x[:, 0] - 2.0 * np.abs(x[:, 3]) + rng.normal(scale=0.1, size=n)
    _assert_same_trees(monkeypatch, x, y, max_depth=5, min_samples_leaf=min_leaf)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("max_splits", (1, 4, 16))
@pytest.mark.parametrize("min_leaf", MIN_LEAVES)
def test_tie_heavy_columns(monkeypatch, n, max_splits, min_leaf):
    rng = np.random.default_rng(7 * n + 31 * max_splits + min_leaf)
    x = np.column_stack(_column_kinds(rng, n, max_splits))
    # Integer targets tie too, so equal gains across features are common.
    y = rng.integers(0, 4, size=n).astype(np.float64)
    _assert_same_trees(
        monkeypatch,
        x,
        y,
        max_depth=6,
        min_samples_leaf=min_leaf,
        max_candidate_splits=max_splits,
    )


@pytest.mark.parametrize("unique_count", (15, 16, 17, 18))
def test_unique_counts_around_candidate_limit(monkeypatch, unique_count):
    rng = np.random.default_rng(unique_count)
    n = 64
    x = np.column_stack(
        [rng.permutation(np.arange(n) % unique_count) * 0.25 for _ in range(4)]
    )
    y = rng.normal(size=n)
    _assert_same_trees(
        monkeypatch, x, y, max_depth=4, min_samples_leaf=3, max_candidate_splits=16
    )


@pytest.mark.parametrize("n", (16, 29, 64))
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
    assert [tree_state(t) for t in shipped._model._trees] == [
        tree_state(t) for t in reference._model._trees
    ]
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
