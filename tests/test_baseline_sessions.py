"""Baseline tuners as step-wise sessions: protocol + bit-identity.

Every baseline tuner must run through the session protocol
(propose → measure → update) with trajectories bit-identical to its direct
``tune()`` loop, whether the session is driven by hand, by the shared
``tune()`` driver, or by the concurrent tuning service — property-tested on
full trajectories across tuners, seeds and budgets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import ConvParams
from repro.core.autotune import (
    GeneticTuner,
    ParallelTemperingSATuner,
    RandomSearchTuner,
    SimulatedAnnealingTuner,
    Tuner,
    TuningSession,
    TVMStyleTuner,
)
from repro.gpusim import V100
from repro.service import TUNERS, TuningRequest, TuningService

SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)

BASELINE_CLASSES = {
    "random": RandomSearchTuner,
    "simulated_annealing": SimulatedAnnealingTuner,
    "sa_tempering": ParallelTemperingSATuner,
    "genetic": GeneticTuner,
}


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


def _request(tuner, budget=20, seed=3, **kw):
    return TuningRequest(
        SMALL,
        V100,
        max_measurements=budget,
        seed=seed,
        tuner=tuner,
        pruned=False,
        **kw,
    )


class TestSessionProtocol:
    @pytest.mark.parametrize("name", sorted(TUNERS))
    def test_every_tuner_runs_the_one_session(self, name):
        tuner, session = _request(name, budget=8).make_session()
        assert isinstance(tuner, Tuner)
        assert type(session) is TuningSession

    def test_propose_twice_without_update_raises(self):
        session = RandomSearchTuner(SMALL, V100, max_measurements=8, seed=1).session()
        session.propose()
        with pytest.raises(RuntimeError):
            session.propose()

    def test_update_without_proposal_raises(self):
        session = RandomSearchTuner(SMALL, V100, max_measurements=8, seed=1).session()
        with pytest.raises(RuntimeError):
            session.update([], [])

    def test_update_length_mismatch_raises(self):
        tuner = GeneticTuner(SMALL, V100, max_measurements=12, seed=1)
        session = tuner.session()
        batch = session.propose()
        with pytest.raises(ValueError):
            session.update(batch, [None] * (len(batch) + 1))

    @pytest.mark.parametrize("name", sorted(BASELINE_CLASSES))
    def test_finished_session_proposes_nothing(self, name):
        tuner = BASELINE_CLASSES[name](SMALL, V100, max_measurements=10, seed=2)
        session = tuner.session()
        while True:
            batch = session.propose()
            if not batch:
                break
            session.update(batch, tuner.measurer.measure_batch(batch))
        assert session.finished
        assert session.propose() == []
        assert session.result.num_measurements <= 10

    @pytest.mark.parametrize("name", sorted(BASELINE_CLASSES))
    def test_budget_exhausts_exactly(self, name):
        # The shared budget bookkeeping stops every tuner exactly at its
        # measurement budget (the genetic brood and the tempering round are
        # both clipped to the remaining budget).
        result = BASELINE_CLASSES[name](SMALL, V100, max_measurements=17, seed=4).tune()
        assert result.num_measurements == 17

    def test_tvm_style_result_name(self):
        result = TVMStyleTuner(SMALL, V100, max_measurements=8, seed=1).tune()
        assert result.tuner == "tvm_style"
        session = TVMStyleTuner(SMALL, V100, max_measurements=8, seed=1).session()
        assert session.result.tuner == "tvm_style"


class TestSessionBitIdentity:
    @pytest.mark.parametrize("name", sorted(BASELINE_CLASSES))
    def test_manual_session_drive_matches_tune(self, name):
        cls = BASELINE_CLASSES[name]
        reference = cls(SMALL, V100, max_measurements=20, seed=5).tune()
        tuner = cls(SMALL, V100, max_measurements=20, seed=5)
        session = tuner.session()
        while not session.finished:
            batch = session.propose()
            if not batch:
                break
            session.update(batch, tuner.measurer.measure_batch(batch))
        assert _trajectory(session.result) == _trajectory(reference)
        assert session.result.tuner == reference.tuner

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(sorted(TUNERS)),
        seed=st.integers(0, 2**16),
        budget=st.integers(4, 32),
    )
    def test_service_trajectory_matches_direct(self, name, seed, budget):
        """The tentpole property: any tuner, scheduled through the service,
        reproduces its direct ``tune()`` trajectory bit-for-bit."""
        request = _request(name, budget=budget, seed=seed)
        reference = request.tune_direct()
        result = TuningService().tune([request])[0]
        assert _trajectory(result) == _trajectory(reference)
        assert result.tuner == reference.tuner

    def test_service_matches_direct_with_hyperparameters(self):
        # Hyperparameters reach the scheduled session (and join the key).
        request = _request(
            "sa_tempering",
            budget=24,
            tuner_params={"chains": 4, "initial_temperature": 0.5},
        )
        reference = request.tune_direct()
        result = TuningService().tune([request])[0]
        assert _trajectory(result) == _trajectory(reference)

    def test_mixed_algorithm_workload_matches_direct(self):
        requests = [
            TuningRequest(SMALL, V100, max_measurements=20, seed=1),  # ate
            _request("random", budget=24),
            _request("simulated_annealing", budget=16),
            _request("sa_tempering", budget=24, tuner_params={"chains": 4}),
            _request("genetic", budget=24, tuner_params={"population": 8, "elite": 2}),
            _request("tvm_style", budget=16),
            _request("random", budget=24),  # duplicate: coalesces
        ]
        service = TuningService()
        results = service.tune(requests)
        assert service.stats.tuning_runs == 6
        assert service.stats.coalesced == 1
        for request, result in zip(requests, results):
            reference = request.tune_direct()
            assert result.best_config == reference.best_config
            assert result.best_time == reference.best_time
            if not result.from_cache:
                assert _trajectory(result) == _trajectory(reference)

    def test_different_tuners_do_not_coalesce(self):
        service = TuningService()
        service.tune([_request("random"), _request("genetic")])
        assert service.stats.tuning_runs == 2
        assert service.stats.coalesced == 0

    def test_different_hyperparameters_do_not_coalesce(self):
        service = TuningService()
        service.tune(
            [
                _request("sa_tempering", tuner_params={"chains": 4}),
                _request("sa_tempering", tuner_params={"chains": 8}),
            ]
        )
        assert service.stats.tuning_runs == 2


class TestRequestValidation:
    def test_unknown_tuner_rejected(self):
        with pytest.raises(ValueError):
            TuningRequest(SMALL, V100, tuner="gradient_descent")

    def test_tvm_style_requires_unpruned(self):
        with pytest.raises(ValueError):
            TuningRequest(SMALL, V100, tuner="tvm_style")
        TuningRequest(SMALL, V100, tuner="tvm_style", pruned=False)  # ok

    def test_engine_tuners_reject_tuner_params(self):
        with pytest.raises(ValueError):
            TuningRequest(SMALL, V100, tuner="ate", tuner_params={"chains": 4})

    def test_tuner_params_dict_normalised_into_key(self):
        a = TuningRequest(
            SMALL, V100, pruned=False, tuner="genetic",
            tuner_params={"population": 8, "elite": 2},
        )
        b = TuningRequest(
            SMALL, V100, pruned=False, tuner="genetic",
            tuner_params=(("elite", 2), ("population", 8)),
        )
        # An unsorted tuple canonicalises too — same hyperparameters must
        # always share one coalescing key, whatever the input order/shape.
        c = TuningRequest(
            SMALL, V100, pruned=False, tuner="genetic",
            tuner_params=(("population", 8), ("elite", 2)),
        )
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert a.tuner_params == (("elite", 2), ("population", 8))

    def test_negative_initial_random_rejected(self):
        with pytest.raises(ValueError, match="initial_random"):
            TuningRequest(SMALL, V100, initial_random=-1)
        TuningRequest(SMALL, V100, initial_random=0)  # ok: explorer from the start

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            TuningRequest(SMALL, V100, deadline="soon")

    def test_describe_names_tuner(self):
        assert "genetic" in _request("genetic").describe()


class TestRunnerIntegration:
    def _net(self):
        from repro.nets import ConvLayer, ConvNet

        return ConvNet(
            "tiny",
            [
                ConvLayer("c1", 8, 16, 32, kernel=3, stride=1, padding=1),
                ConvLayer("c2", 8, 32, 32, kernel=3, stride=1, padding=1),
            ],
        )

    def test_tuned_mode_accepts_baseline_tuner(self):
        from repro.nets.runner import ModelRunner

        runner = ModelRunner(V100, mode="tuned", max_measurements=16, tuner="random")
        timing = runner.time_model(self._net())
        assert timing.ours_seconds > 0

    def test_unknown_runner_tuner_rejected(self):
        from repro.nets.runner import ModelRunner

        with pytest.raises(ValueError):
            ModelRunner(V100, tuner="nope")

    def test_compare_tuners_runs_every_tuner_through_one_service(self):
        from repro.nets.runner import ModelRunner

        runner = ModelRunner(V100, mode="tuned", max_measurements=16)
        timings = runner.compare_tuners(self._net(), tuners=("ate", "random"))
        assert set(timings) == {"ate", "random"}
        for timing in timings.values():
            assert timing.ours_seconds > 0
            assert len(timing.layers) == 2

    def test_compare_tuners_rejects_unknown(self):
        from repro.nets.runner import ModelRunner

        with pytest.raises(ValueError):
            ModelRunner(V100).compare_tuners(self._net(), tuners=("ate", "nope"))
