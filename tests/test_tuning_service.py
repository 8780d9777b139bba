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
    result = engine.tune()
    return result, engine.measurer.num_measurements


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


class TestTuningSession:
    def test_session_drive_matches_tune(self):
        request = _request()
        reference, _ = _direct(request)
        engine = request.make_engine()
        session = engine.session()
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
        session = engine.session()
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

    def test_in_flight_tracks_the_run(self):
        request = _request()
        service = TuningService()
        assert not service.in_flight(request)
        service.submit(request)
        # The deadline is scheduling metadata: the same request still joins.
        assert service.in_flight(_request(deadline=5.0))
        assert not service.in_flight(_request(seed=2))
        service.drain()
        assert not service.in_flight(request)

    def test_unstartable_request_leaves_nothing_to_coalesce_onto(self):
        # Regression: the run used to be registered before its tuner was
        # built, so a duplicate of a request whose tuner raised joined a run
        # that never existed and waited on it forever.
        request = _request(tuner="genetic", tuner_params={"population": 2}, pruned=False)
        service = TuningService()
        for _ in range(2):
            with pytest.raises(ValueError, match="population"):
                service.submit(request)
        assert not service.in_flight(request)
        assert service.num_active == 0
        assert not service.step()


class TestCancellation:
    """`TuningService.cancel` fails a run and every future attached to it
    (the daemon's per-request timeout path)."""

    def test_cancel_fails_every_waiter(self):
        # simulated_annealing measures one config per round, so the run is
        # reliably still in flight after a couple of steps.
        request = _request(budget=50, tuner="simulated_annealing", pruned=False)
        service = TuningService()
        first = service.submit(request)
        second = service.submit(request)
        assert second.coalesced
        service.step()
        assert service.cancel(request, RequestCancelled("all gone"))
        with pytest.raises(RequestCancelled):
            first.result()
        with pytest.raises(RequestCancelled):
            second.result()
        # Nothing in flight anymore: the run was torn down, not leaked, and
        # a second cancel finds nothing to cancel.
        assert not service.step()
        assert not service.cancel(request)


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

    def test_request_lookup_applies_the_serving_rules(self):
        db = TuningDatabase()
        TuningService(database=db).tune([_request(budget=24)])
        record = _request(budget=16).lookup(db)
        assert record is not None and record.budget == 24
        assert _request(budget=32).lookup(db) is None  # a more thorough search
        assert _request(noise=0.0).lookup(db) is None  # other conditions
        hits, misses = db.hits, db.misses
        # An unpruned request is never served, and never counts as a miss.
        assert _request(pruned=False).lookup(db) is None
        assert (db.hits, db.misses) == (hits, misses)

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
        assert pool.stats.mode == "serial"
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
        assert pool.stats.mode == "serial"  # one distinct request -> one shard
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
        assert pool.stats.mode == "serial"  # nothing left to shard
        assert all(r.from_cache and r.best_time == stored for r in results)


class TestIncrementalFeatures:
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
