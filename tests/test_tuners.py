"""Tests for the auto-tuning engine, the explorer and the baseline tuners."""

import random

import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    AutoTuningEngine,
    CostModel,
    ExplorerConfig,
    GeneticTuner,
    Measurer,
    ParallelRandomWalkExplorer,
    RandomSearchTuner,
    SearchSpace,
    SimulatedAnnealingTuner,
    TVMStyleTuner,
    TrialRecord,
    TuningResult,
    feature_matrix,
)
from repro.gpusim import V100
from repro.service import TUNERS, TuningRequest

# A small layer keeps the tuning tests fast while leaving a non-trivial space.
LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
BUDGET = 60


@pytest.fixture(scope="module")
def shared_measurer():
    return Measurer(LAYER, V100)


@pytest.fixture(scope="module")
def ate_result(shared_measurer):
    engine = AutoTuningEngine(
        LAYER, V100, "direct", max_measurements=BUDGET, seed=3, measurer=shared_measurer
    )
    return engine.tune()


class TestExplorer:
    def test_propose_without_model(self, pyrng):
        space = SearchSpace(LAYER, V100, "direct", pruned=True)
        explorer = ParallelRandomWalkExplorer(space, LAYER, V100, seed=1)
        batch = explorer.propose(None, batch_size=8)
        assert len(batch) == 8
        assert len({c.key() for c in batch}) == 8

    def test_propose_respects_visited(self):
        space = SearchSpace(LAYER, V100, "direct", pruned=True)
        explorer = ParallelRandomWalkExplorer(space, LAYER, V100, seed=2)
        first = explorer.propose(None, batch_size=6)
        visited = {c.key() for c in first}
        second = explorer.propose(None, batch_size=6, visited=set(visited))
        assert not visited & {c.key() for c in second}

    def test_propose_with_trained_model_prefers_fast(self, shared_measurer):
        space = SearchSpace(LAYER, V100, "direct", pruned=True)
        rng = random.Random(0)
        train = space.sample(rng, 40)
        times = [shared_measurer.time_seconds(c) if shared_measurer.is_feasible(c) else float("inf") for c in train]
        model = CostModel(min_samples=8, seed=0)
        model.fit(feature_matrix(train, LAYER, V100), times)
        explorer = ParallelRandomWalkExplorer(space, LAYER, V100, seed=3)
        batch = explorer.propose(model, batch_size=10)
        batch_times = [shared_measurer.time_seconds(c) for c in batch if shared_measurer.is_feasible(c)]
        random_times = [t for t in times if t != float("inf")]
        assert sum(batch_times) / len(batch_times) <= sum(random_times) / len(random_times)

    def test_explorer_config_validation(self):
        with pytest.raises(ValueError):
            ExplorerConfig(num_walkers=0)
        with pytest.raises(ValueError):
            ExplorerConfig(restart_fraction=1.5)

    @pytest.mark.parametrize("epsilon", [0.0, 0.25, 1.0])
    def test_epsilon_greedy_fills_batch(self, epsilon):
        """Regression for the collapsed random-fill loop: whatever fraction of
        the batch is reserved for ε-greedy exploration, the proposal always
        returns a full batch of unique, unvisited configurations."""
        space = SearchSpace(LAYER, V100, "direct", pruned=True)
        explorer = ParallelRandomWalkExplorer(
            space, LAYER, V100, config=ExplorerConfig(epsilon=epsilon), seed=4
        )
        visited = {c.key() for c in space.sample(random.Random(0), 50)}
        batch = explorer.propose(None, batch_size=12, visited=set(visited))
        assert len(batch) == 12
        keys = {c.key() for c in batch}
        assert len(keys) == 12
        assert not keys & visited


class TestTuningResult:
    def test_best_and_curve(self, ate_result):
        assert ate_result.best_time > 0
        curve = ate_result.best_gflops_curve()
        assert len(curve) == ate_result.num_measurements
        assert curve == sorted(curve)  # best-so-far is monotone
        assert curve[-1] == pytest.approx(ate_result.best_gflops)

    def test_measurements_to_reach(self, ate_result):
        n99 = ate_result.measurements_to_reach(0.99)
        n50 = ate_result.measurements_to_reach(0.50)
        assert 1 <= n50 <= n99 <= ate_result.num_measurements

    def test_measurements_to_reach_validation(self, ate_result):
        with pytest.raises(ValueError):
            ate_result.measurements_to_reach(0.0)

    def test_empty_result_raises(self):
        r = TuningResult(tuner="x", params=LAYER, gpu="V100")
        with pytest.raises(RuntimeError):
            _ = r.best_trial

    def test_measurements_to_reach_all_invalid_is_zero(self):
        """An all-invalid run has a flat-zero curve; it must not report
        convergence at measurement 1 (target would be 0.0)."""
        r = TuningResult(tuner="x", params=LAYER, gpu="V100")
        for i in range(5):
            r.trials.append(
                TrialRecord(index=i, config=None, time_seconds=float("inf"), gflops=0.0)
            )
        assert r.measurements_to_reach(0.99) == 0
        assert r.measurements_to_reach(0.5) == 0

    def test_measurements_to_reach_empty_is_zero(self):
        r = TuningResult(tuner="x", params=LAYER, gpu="V100")
        assert r.measurements_to_reach(0.99) == 0


class TestConvergenceCurve:
    """Figure 11's curve ranks trials by time, as the tuner's best trial
    does, in direct-equivalent GFLOP/s, so it can never end above the
    throughput of the configuration the tuner returns."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("algorithm", ["direct", "winograd"])
    @pytest.mark.parametrize("tuner", TUNERS)
    def test_curve_ends_at_the_returned_best(self, tuner, algorithm, seed):
        request = TuningRequest(
            SMALL,
            V100,
            algorithm=algorithm,
            max_measurements=24,
            seed=seed,
            pruned=tuner != "tvm_style",
            tuner=tuner,
        )
        result = request.tune_direct()
        curve = result.best_gflops_curve()
        assert len(curve) == result.num_measurements
        assert curve == sorted(curve)
        assert curve[-1] == SMALL.flops / result.best_time / 1e9
        if algorithm == "direct":
            assert curve[-1] == result.best_gflops
        # The curve first reaches its end at the returned best trial.
        reached = result.trials[result.measurements_to_reach(1.0) - 1]
        assert reached.time_seconds == result.best_time


class TestAutoTuningEngine:
    def test_respects_budget(self, ate_result):
        assert ate_result.num_measurements <= BUDGET

    def test_best_config_in_pruned_space(self, ate_result):
        space = SearchSpace(LAYER, V100, "direct", pruned=True)
        assert space.contains(ate_result.best_config)

    def test_space_size_recorded(self, ate_result):
        assert ate_result.space_size == SearchSpace(LAYER, V100, "direct", pruned=True).size()

    def test_beats_pure_random(self, ate_result, shared_measurer):
        rnd = RandomSearchTuner(
            LAYER, V100, "direct", max_measurements=BUDGET, seed=3, measurer=shared_measurer
        ).tune()
        assert ate_result.best_gflops >= 0.9 * rnd.best_gflops

    def test_improves_over_initial_samples(self, ate_result):
        curve = ate_result.best_gflops_curve()
        assert curve[-1] > curve[7]  # better than the best of the first 8 random samples

    def test_winograd_tuning_runs(self, shared_measurer):
        engine = AutoTuningEngine(LAYER, V100, "winograd", max_measurements=40, seed=5)
        res = engine.tune()
        assert res.best_config.algorithm == "winograd"
        assert res.best_gflops > 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AutoTuningEngine(LAYER, V100, max_measurements=0)
        with pytest.raises(ValueError):
            AutoTuningEngine(LAYER, V100, batch_size=0)
        with pytest.raises(ValueError):
            AutoTuningEngine(LAYER, V100, patience=0)


class TestBaselines:
    def test_random_search(self, shared_measurer):
        res = RandomSearchTuner(LAYER, V100, max_measurements=30, seed=1, measurer=shared_measurer).tune()
        assert res.tuner == "random"
        assert 0 < res.num_measurements <= 30

    def test_simulated_annealing(self, shared_measurer):
        res = SimulatedAnnealingTuner(LAYER, V100, max_measurements=30, seed=1, measurer=shared_measurer).tune()
        assert res.tuner == "simulated_annealing"
        assert res.best_time > 0

    def test_genetic(self, shared_measurer):
        res = GeneticTuner(LAYER, V100, max_measurements=40, seed=1, measurer=shared_measurer).tune()
        assert res.tuner == "genetic"
        assert res.best_time > 0

    def test_tvm_style_uses_full_space(self, shared_measurer):
        tvm = TVMStyleTuner(LAYER, V100, "direct", max_measurements=40, seed=1, measurer=shared_measurer)
        assert not tvm.space.pruned
        res = tvm.tune()
        assert res.tuner == "tvm_style"
        assert res.space_size > SearchSpace(LAYER, V100, "direct", pruned=True).size()

    def test_ate_space_smaller_than_tvm_space(self):
        ate = AutoTuningEngine(LAYER, V100, "direct", max_measurements=10, seed=0)
        tvm = TVMStyleTuner(LAYER, V100, "direct", max_measurements=10, seed=0)
        assert ate.space.size() < tvm.space.size()

    def test_sa_params_validated(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingTuner(LAYER, V100, initial_temperature=0)

    def test_genetic_params_validated(self):
        with pytest.raises(ValueError):
            GeneticTuner(LAYER, V100, population=2)

    def test_baseline_budget_respected(self, shared_measurer):
        for cls in (RandomSearchTuner, SimulatedAnnealingTuner, GeneticTuner):
            res = cls(LAYER, V100, max_measurements=25, seed=2, measurer=shared_measurer).tune()
            assert res.num_measurements <= 25 + 24  # GA may finish its generation
