"""Tests for the gradient-boosted cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.autotune import CostModel, GradientBoostedTrees, RegressionTree


def _make_regression(n=200, d=6, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, d))
    y = 2.0 * x[:, 0] - 1.5 * np.abs(x[:, 1]) + 0.5 * x[:, 2] * x[:, 3] + noise * rng.standard_normal(n)
    return x, y


class TestRegressionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2, max_candidate_splits=64).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 0.01

    def test_depth_limits_nodes(self):
        x, y = _make_regression()
        shallow = RegressionTree(max_depth=2).fit(x, y)
        deep = RegressionTree(max_depth=5).fit(x, y)
        assert shallow.num_nodes <= deep.num_nodes

    def test_constant_target(self):
        x, _ = _make_regression(50)
        tree = RegressionTree().fit(x, np.full(50, 3.0))
        assert np.allclose(tree.predict(x), 3.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)

    @pytest.mark.parametrize("splits", [0, -1])
    def test_invalid_candidate_splits(self, splits):
        with pytest.raises(ValueError, match="max_candidate_splits"):
            RegressionTree(max_candidate_splits=splits)

    def test_min_samples_leaf_respected(self):
        x, y = _make_regression(30)
        tree = RegressionTree(max_depth=8, min_samples_leaf=10).fit(x, y)
        # With a large leaf size, the tree cannot overfit to every point.
        assert np.mean((tree.predict(x) - y) ** 2) > 0


class TestGradientBoostedTrees:
    def test_beats_single_tree(self):
        x, y = _make_regression(300, seed=1)
        x_test, y_test = _make_regression(100, seed=2)
        tree_mse = np.mean((RegressionTree(max_depth=3).fit(x, y).predict(x_test) - y_test) ** 2)
        gbt_mse = np.mean(
            (GradientBoostedTrees(n_estimators=60, seed=3).fit(x, y).predict(x_test) - y_test) ** 2
        )
        assert gbt_mse < tree_mse

    def test_training_error_decreases_with_estimators(self):
        x, y = _make_regression(200, seed=5)
        few = GradientBoostedTrees(n_estimators=5, seed=0).fit(x, y)
        many = GradientBoostedTrees(n_estimators=80, seed=0).fit(x, y)
        assert np.mean((many.predict(x) - y) ** 2) < np.mean((few.predict(x) - y) ** 2)

    def test_deterministic_given_seed(self):
        x, y = _make_regression(100)
        a = GradientBoostedTrees(seed=9).fit(x, y).predict(x)
        b = GradientBoostedTrees(seed=9).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=0)

    def test_invalid_tree_params_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_depth"):
            GradientBoostedTrees(max_depth=0)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            GradientBoostedTrees(min_samples_leaf=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 3)))

    def test_rank_correlation_on_heldout(self):
        """The model must rank configurations usefully, not just regress."""
        x, y = _make_regression(400, seed=11)
        model = GradientBoostedTrees(n_estimators=80, seed=1).fit(x[:300], y[:300])
        pred = model.predict(x[300:])
        true = y[300:]
        rank_pred = np.argsort(np.argsort(pred))
        rank_true = np.argsort(np.argsort(true))
        corr = np.corrcoef(rank_pred, rank_true)[0, 1]
        assert corr > 0.7


class TestCostModel:
    def test_untrained_below_min_samples(self):
        cm = CostModel(min_samples=10)
        trained = cm.fit(np.zeros((4, 3)), [1.0] * 4)
        assert not trained and not cm.is_trained

    def test_trains_and_ranks(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(60, 5))
        runtimes = 1e-3 * (1.0 + 3.0 * x[:, 0])  # feature 0 drives runtime
        cm = CostModel(min_samples=8, seed=1)
        assert cm.fit(x, runtimes)
        order = cm.rank(x)
        # The best-ranked config should be among the truly fastest quartile.
        assert runtimes[order[0]] <= np.quantile(runtimes, 0.25)

    def test_predict_runtime_positive(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(40, 4))
        cm = CostModel(min_samples=8)
        cm.fit(x, 1e-3 + 1e-3 * x[:, 0])
        assert np.all(cm.predict_runtime(x) > 0)

    def test_ignores_invalid_runtimes(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(20, 4))
        runtimes = [float("inf")] * 15 + [1e-3] * 5
        cm = CostModel(min_samples=8)
        assert not cm.fit(x, runtimes)  # only 5 valid samples < min_samples
        assert cm.num_samples == 5

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CostModel().predict_score(np.zeros((1, 3)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CostModel().fit(np.zeros((3, 2)), [1.0, 2.0])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(30, 120))
def test_property_gbt_reduces_training_error_vs_mean(seed, n):
    """Boosting always fits the training set at least as well as the mean."""
    x, y = _make_regression(n, seed=seed)
    model = GradientBoostedTrees(n_estimators=25, seed=seed).fit(x, y)
    mse_model = float(np.mean((model.predict(x) - y) ** 2))
    mse_mean = float(np.var(y))
    assert mse_model <= mse_mean + 1e-9
