"""Tests for the concurrent tuning service and the step-wise engine protocol.

The service's core contract is *bit-identity*: coalescing, database serving,
cross-request measurement packing and process sharding may only remove
redundant work — every request's outcome must equal what driving
``AutoTuningEngine.tune`` directly would have produced.
"""

import threading

import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    ParallelTemperingSATuner,
    TuningDatabase,
)
from repro.gpusim import GTX_1080TI, V100
from repro.service import (
    RequestCancelled,
    RequestTimeout,
    TuningFuture,
    TuningRequest,
    TuningService,
    TuningWorkerPool,
)

SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
THIRD = ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1)


def _request(params=SMALL, spec=V100, algorithm="direct", budget=24, seed=1, **kw):
    return TuningRequest(
        params, spec, algorithm=algorithm, max_measurements=budget, seed=seed, **kw
    )


def _direct(request: TuningRequest):
    """Reference: drive the engine synchronously, no database."""
    engine = request.make_engine()
    result = engine.tune(initial_random=request.initial_random)
    return result, engine.measurer.num_measurements


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


class TestTuningSession:
    def test_session_drive_matches_tune(self):
        request = _request()
        reference, _ = _direct(request)
        engine = request.make_engine()
        session = engine.session(request.initial_random)
        while not session.finished:
            batch = session.propose()
            if not batch:
                break
            session.update(batch, engine.measurer.measure_batch(batch))
        assert _trajectory(session.result) == _trajectory(reference)

    def test_propose_twice_without_update_raises(self):
        session = _request().make_engine().session()
        session.propose()
        with pytest.raises(RuntimeError):
            session.propose()

    def test_update_without_proposal_raises(self):
        session = _request().make_engine().session()
        with pytest.raises(RuntimeError):
            session.update([], [])

    def test_update_length_mismatch_raises(self):
        engine = _request().make_engine()
        session = engine.session()
        batch = session.propose()
        with pytest.raises(ValueError):
            session.update(batch, [None] * (len(batch) + 1))

    def test_initial_random_zero_still_searches(self):
        # An empty initialisation batch must not read as "run finished" —
        # the explorer phase carries the whole budget (regression test).
        request = _request(budget=16, initial_random=0)
        reference, _ = _direct(request)
        assert reference.num_measurements > 0
        result = TuningService().tune([request])[0]
        assert _trajectory(result) == _trajectory(reference)

    def test_finished_session_proposes_nothing(self):
        request = _request(budget=8)
        engine = request.make_engine()
        session = engine.session(request.initial_random)
        while True:
            batch = session.propose()
            if not batch:
                break
            session.update(batch, engine.measurer.measure_batch(batch))
        assert session.finished
        assert session.propose() == []


class TestCoalescing:
    def test_identical_requests_tune_once(self):
        request = _request()
        _, direct_measurements = _direct(request)
        service = TuningService()
        results = service.tune([request] * 5)
        assert service.stats.tuning_runs == 1
        assert service.stats.coalesced == 4
        # Measurement-count accounting: five requests cost exactly one run.
        assert service.stats.measurements == direct_measurements
        reference, _ = _direct(request)
        for result in results:
            assert result.best_config == reference.best_config
            assert result.best_time == reference.best_time

    def test_coalesced_futures_are_flagged(self):
        service = TuningService()
        futures = [service.submit(_request()) for _ in range(3)]
        assert [f.coalesced for f in futures] == [False, True, True]
        service.drain()
        # Duplicates are answered the way a later sequential request against
        # the shared database would have been: from the stored record.
        assert not futures[0].result().from_cache
        assert all(f.result().from_cache for f in futures[1:])
        assert all(f.from_database for f in futures[1:])

    def test_different_seeds_do_not_coalesce(self):
        service = TuningService()
        service.tune([_request(seed=1), _request(seed=2)])
        assert service.stats.tuning_runs == 2
        assert service.stats.coalesced == 0

    def test_different_conditions_do_not_coalesce(self):
        service = TuningService()
        service.tune([_request(), _request(noise=0.0)])
        assert service.stats.tuning_runs == 2


class TestCancellation:
    """`TuningService.cancel` and coalesced waiters.

    Regression (the daemon's per-request timeout path): cancelling a run
    used to fail *every* future attached to it, including coalesced
    duplicates from other submitters whose own deadlines had not expired.
    With ``future=``, only the cancelling waiter detaches while others
    remain; the run itself fails only when no surviving waiter is left.
    """

    def _two_coalesced(self):
        # simulated_annealing measures one config per round, so the run is
        # reliably still in flight after a couple of steps.
        request = _request(budget=50, tuner="simulated_annealing", pruned=False)
        service = TuningService()
        first = service.submit(request)
        second = service.submit(request)
        assert second.coalesced
        service.step()
        return service, request, first, second

    def test_timeout_on_one_of_two_coalesced_submits(self):
        service, request, first, second = self._two_coalesced()
        timeout = RequestTimeout("second submitter's deadline expired")
        assert service.cancel(request, timeout, future=second)
        # The cancelled waiter is answered with the timeout immediately...
        with pytest.raises(RequestTimeout):
            second.result()
        # ...while the run (and the other submitter) is untouched: it
        # finishes with the full fresh result, bit-identical to direct.
        assert not first.done()
        service.drain()
        assert _trajectory(first.result()) == _trajectory(request.tune_direct())
        assert service.stats.tuning_runs == 1

    def test_cancelling_the_primary_promotes_the_duplicate(self):
        service, request, first, second = self._two_coalesced()
        assert service.cancel(request, RequestTimeout("expired"), future=first)
        with pytest.raises(RequestTimeout):
            first.result()
        service.drain()
        # The surviving duplicate inherited the run wholesale.
        assert _trajectory(second.result()) == _trajectory(request.tune_direct())

    def test_cancelling_the_last_waiter_fails_the_run(self):
        request = _request(budget=50, tuner="simulated_annealing", pruned=False)
        service = TuningService()
        only = service.submit(request)
        service.step()
        assert service.cancel(request, RequestCancelled("gone"), future=only)
        with pytest.raises(RequestCancelled):
            only.result()
        # Nothing in flight anymore: the run was torn down, not leaked.
        assert not service.step()

    def test_cancel_without_future_fails_every_waiter(self):
        service, request, first, second = self._two_coalesced()
        assert service.cancel(request, RequestCancelled("all gone"))
        with pytest.raises(RequestCancelled):
            first.result()
        with pytest.raises(RequestCancelled):
            second.result()

    def test_cancel_with_settled_or_foreign_future_is_a_noop(self):
        service, request, first, second = self._two_coalesced()
        foreign = TuningFuture(request)
        assert not service.cancel(request, future=foreign)
        assert service.cancel(request, future=second)
        # Already detached: a second cancel of the same future is a no-op.
        assert not service.cancel(request, future=second)
        assert not first.done()


class TestBitIdentity:
    def test_mixed_workload_matches_direct_tuning(self):
        requests = [
            _request(SMALL),
            _request(LAYER),
            _request(SMALL),  # coalesces with [0]
            _request(LAYER, algorithm="winograd"),
            _request(SMALL, spec=GTX_1080TI),
            _request(THIRD, budget=16),
        ]
        service = TuningService()
        results = service.tune(requests)
        for request, result in zip(requests, results):
            reference, _ = _direct(request)
            assert result.best_config == reference.best_config
            assert result.best_time == reference.best_time
        # Primary runs reproduce the full trajectory, not just the optimum.
        assert _trajectory(results[0]) == _trajectory(_direct(requests[0])[0])
        assert _trajectory(results[1]) == _trajectory(_direct(requests[1])[0])

    def test_cross_request_packing_is_accounted(self):
        requests = [_request(SMALL), _request(LAYER), _request(THIRD)]
        service = TuningService()
        service.tune(requests)
        # Every lowered configuration went through a shared executor call,
        # and each round used one call for the whole V100 group — far fewer
        # than the per-request rounds a sequential driver would issue.
        assert service.stats.packed_configs == service.stats.measurements
        per_request_rounds = 3 * (1 + (24 - 16 + 15) // 16 + 4)  # loose bound
        assert 0 < service.stats.executor_calls < per_request_rounds

    def test_mixed_devices_split_executor_groups(self):
        service = TuningService()
        service.tune([_request(SMALL), _request(SMALL, spec=GTX_1080TI)])
        # Different GPUs can never share an executor call.
        assert service.stats.tuning_runs == 2
        assert service.stats.executor_calls >= 2


class TestDatabaseServing:
    def test_repeat_submission_is_served_from_database(self):
        request = _request()
        service = TuningService()
        service.tune([request])
        measurements = service.stats.measurements
        future = service.submit(request)
        assert future.done() and future.from_database
        assert future.result().from_cache
        assert service.stats.database_hits == 1
        service.drain()
        assert service.stats.measurements == measurements  # zero new work

    def test_prepopulated_database_serves_at_submit(self):
        db = TuningDatabase()
        TuningService(database=db).tune([_request()])
        service = TuningService(database=db)
        future = service.submit(_request())
        assert future.done() and future.from_database
        assert service.stats.tuning_runs == 0

    def test_unpruned_requests_bypass_database(self):
        db = TuningDatabase()
        service = TuningService(database=db)
        result = service.tune([_request(pruned=False, budget=16)])[0]
        assert result.tuner == "ate_unpruned"
        assert len(db) == 0
        # And an identical unpruned resubmission is a fresh run, not a hit.
        service.submit(_request(pruned=False, budget=16))
        service.drain()
        assert service.stats.tuning_runs == 2

    def test_lower_budget_request_served_by_thorough_record(self):
        service = TuningService()
        service.tune([_request(budget=32)])
        future = service.submit(_request(budget=16))
        assert future.done() and future.from_database

    def test_higher_budget_request_tunes_again(self):
        service = TuningService()
        service.tune([_request(budget=16)])
        future = service.submit(_request(budget=32))
        assert not future.done()
        service.drain()
        assert service.stats.tuning_runs == 2


class TestThreadedSubmission:
    def test_concurrent_submitters_one_driver(self):
        service = TuningService()
        futures = []
        lock = threading.Lock()

        def client():
            for request in (_request(SMALL), _request(LAYER), _request(SMALL)):
                future = service.submit(request)
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.drain()
        assert len(futures) == 12
        assert service.stats.tuning_runs == 2  # SMALL and LAYER, once each
        reference, _ = _direct(_request(SMALL))
        for future in futures:
            if future.request.params == SMALL:
                assert future.result(timeout=1).best_time == reference.best_time

    def test_result_timeout(self):
        service = TuningService()
        future = service.submit(_request())
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        service.drain()
        assert future.done()


class _BrokenContext:
    """A multiprocessing context on a box where no process can be created."""

    def Pool(self, processes):
        raise OSError("no multiprocessing here")

    def Process(self, *args, **kwargs):
        raise OSError("no multiprocessing here")

    def Queue(self):
        raise OSError("no multiprocessing here")


class TestWorkerPool:
    WORKLOAD = [
        _request(SMALL),
        _request(LAYER),
        _request(SMALL),  # duplicate: must land in the same shard
        _request(THIRD, budget=16),
    ]

    def test_pool_matches_in_process_service(self):
        reference = TuningService().tune(self.WORKLOAD)
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2)
        results = pool.tune(self.WORKLOAD, database=db)
        for a, b in zip(reference, results):
            assert a.best_config == b.best_config
            assert a.best_time == b.best_time
        # The merged database covers every distinct pruned problem.
        assert len(db) == 3

    def test_serial_fallback_matches(self):
        reference = TuningService().tune(self.WORKLOAD)
        pool = TuningWorkerPool(num_workers=2)
        pool._context = lambda: _BrokenContext()
        results = pool.tune(self.WORKLOAD)
        assert not pool.used_processes
        for a, b in zip(reference, results):
            assert a.best_time == b.best_time

    def test_use_processes_true_requires_processes(self):
        pool = TuningWorkerPool(num_workers=2, use_processes=True)
        pool._context = lambda: _BrokenContext()
        with pytest.raises(OSError):
            pool.tune(self.WORKLOAD)

    def test_single_shard_runs_serially(self):
        pool = TuningWorkerPool(num_workers=4)
        results = pool.tune([_request(SMALL), _request(SMALL)])
        assert not pool.used_processes  # one distinct request -> one shard
        assert results[0].best_time == results[1].best_time

    def test_empty_workload(self):
        assert TuningWorkerPool().tune([]) == []

    def test_caller_database_serves_covered_requests(self):
        # The pool must honour the caller's database exactly like the
        # in-process service: covered requests never reach a worker.
        db = TuningDatabase()
        TuningService(database=db).tune([_request(SMALL)])
        stored = db.lookup(SMALL, V100, "direct").time_seconds
        pool = TuningWorkerPool(num_workers=2)
        results = pool.tune([_request(SMALL), _request(SMALL)], database=db)
        assert not pool.used_processes  # nothing left to shard
        assert all(r.from_cache and r.best_time == stored for r in results)


class TestIncrementalFeatures:
    def test_feature_cache_grows_with_dataset(self):
        request = _request()
        engine = request.make_engine()
        engine.tune(initial_random=request.initial_random)
        # Retraining cached one row per distinct measured configuration.
        assert len(engine.features) > 0

    def test_cached_retraining_is_bit_identical(self):
        # Covered transitively by TestTuningSession/TestBitIdentity (the
        # reference engines use the same incremental path), so pin the lower
        # level: FeatureCache.matrix equals the uncached feature_matrix.
        import random

        import numpy as np

        from repro.core.autotune import FeatureCache, SearchSpace, feature_matrix

        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        rng = random.Random(0)
        configs = [space.random_configuration(rng) for _ in range(12)]
        cache = FeatureCache(SMALL, V100)
        first = cache.matrix(configs)
        again = cache.matrix(configs)  # second call: fully cached
        reference = feature_matrix(configs, SMALL, V100)
        assert np.array_equal(first, reference)
        assert np.array_equal(again, reference)


class TestParallelTemperingBaseline:
    def test_deterministic_and_budgeted(self):
        a = ParallelTemperingSATuner(LAYER, V100, "direct", max_measurements=48, seed=5).tune()
        b = ParallelTemperingSATuner(LAYER, V100, "direct", max_measurements=48, seed=5).tune()
        assert _trajectory(a) == _trajectory(b)
        assert a.num_measurements == 48
        assert a.tuner == "sa_tempering"

    def test_routes_through_measure_batch(self):
        from repro.core.autotune import Measurer

        class CountingMeasurer(Measurer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.batch_calls = 0
                self.scalar_calls = 0

            def measure_batch(self, configs):
                self.batch_calls += 1
                return super().measure_batch(configs)

            def try_measure(self, config):
                self.scalar_calls += 1
                return super().try_measure(config)

        measurer = CountingMeasurer(LAYER, V100)
        tuner = ParallelTemperingSATuner(
            LAYER, V100, "direct", max_measurements=40, seed=5, chains=8, measurer=measurer
        )
        tuner.tune()
        assert measurer.scalar_calls == 0
        # init round + ceil(32 / 8) proposal rounds = 5 batched calls.
        assert measurer.batch_calls == 5

    def test_chain_count_validation(self):
        with pytest.raises(ValueError):
            ParallelTemperingSATuner(SMALL, V100, chains=1)
        with pytest.raises(ValueError):
            ParallelTemperingSATuner(SMALL, V100, temperature_ratio=1.0)
