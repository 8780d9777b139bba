"""Streaming cross-shard record exchange: correctness, faults, stress.

Three layers of coverage for the long-lived worker pool and the concurrent
machinery under it:

* **Semantics** — cross-shard serving cuts measurements deterministically in
  the serial interleaving, fresh runs stay bit-identical to ``tune_direct``,
  and record injection never perturbs an in-flight session.
* **Fault injection** — a worker SIGKILLed mid-run, poisoned record
  envelopes on the exchange, and a database save interrupted between the
  temp-file write and ``os.replace``: the pool must degrade gracefully and
  the parent database must stay uncorrupted.
* **Stress / properties** — a 16-thread ``submit()`` hammer with records
  streaming in (marked ``slow``), and the order-independence property that
  makes streaming apply safe: any arrival permutation of a record set is
  equivalent to one bulk ``merge()``.
"""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    Measurer,
    RecordEnvelope,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
)
from repro.gpusim import V100
from repro.obs import MonotonicClock
from repro.service import (
    RequestFailed,
    TuningRequest,
    TuningService,
    TuningWorkerPool,
)

import repro.service.pool as pool_module
from tests.pool_reference import isolated_shards

A = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
B = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
C = ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1)
D = ConvParams.square(11, 24, 40, kernel=3, stride=1, padding=1)

BUDGET = 24


def _request(params=A, seed=1, budget=BUDGET, **kw):
    return TuningRequest(
        params, V100, algorithm="direct", max_measurements=budget, seed=seed, **kw
    )


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


def _record_for(request, time_seconds, budget=None):
    """A well-formed record covering ``request`` (same conditions)."""
    space_config = request.tune_direct().best_config
    return TuningRecord(
        params=request.params,
        gpu=request.spec.name,
        algorithm=request.algorithm,
        config=space_config,
        time_seconds=time_seconds,
        gflops=1.0,
        budget=budget if budget is not None else request.max_measurements,
        noise=request.noise,
        noise_seed=request.noise_seed,
    )


#: two problems, each requested under two different seeds, interleaved so the
#: seed variants of one problem land in *different* shards (round-robin over
#: distinct requests): shard0 = [A(s1), B(s2)], shard1 = [B(s1), A(s2)].
#: With windowed admission each shard's second request is still in the
#: backlog when the other shard's record arrives -> served with zero
#: measurements.  Isolated shards tune all four.
CROSS_SHARD_WORKLOAD = [
    _request(A, seed=1),
    _request(B, seed=1),
    _request(B, seed=2),
    _request(A, seed=2),
]


class TestCrossShardStreaming:
    def test_serial_streaming_cuts_measurements_deterministically(self):
        stream_pool = TuningWorkerPool(
            num_workers=2, admit_window=1, use_processes=False
        )
        stream_results = stream_pool.tune(list(CROSS_SHARD_WORKLOAD))
        isolated_results, isolated = isolated_shards(stream_pool, CROSS_SHARD_WORKLOAD)

        # Strictly fewer measurements: one fresh run per problem instead of
        # one per (problem, seed).  Serial interleaving is deterministic, so
        # these are exact counts, not bounds.
        assert stream_pool.stats.measurements < isolated.measurements
        assert isolated.tuning_runs == 4
        assert stream_pool.stats.tuning_runs == 2
        assert stream_pool.stats.database_hits == 2
        assert stream_pool.stats.records_streamed >= 2
        assert stream_pool.stats.records_applied >= 2

        # Every request still gets a covering answer: fresh runs reproduce
        # tune_direct bit-for-bit; served ones return a genuine record for
        # their problem under their own measurement conditions and budget.
        for request, result in zip(CROSS_SHARD_WORKLOAD, stream_results):
            if result.from_cache:
                assert result.best_time <= min(
                    r.best_time
                    for q, r in zip(CROSS_SHARD_WORKLOAD, isolated_results)
                    if q.params == request.params
                )
            else:
                assert _trajectory(result) == _trajectory(request.tune_direct())

    def test_streaming_never_measures_more(self):
        # Windowed admission can only convert fresh runs into database hits,
        # never add runs (identical in-flight duplicates bypass the window).
        workload = CROSS_SHARD_WORKLOAD + [_request(A, seed=1), _request(C, seed=3)]
        stream_pool = TuningWorkerPool(
            num_workers=2, admit_window=1, use_processes=False
        )
        stream_pool.tune(list(workload))
        _, isolated = isolated_shards(stream_pool, workload)
        assert stream_pool.stats.measurements <= isolated.measurements
        assert stream_pool.stats.tuning_runs <= isolated.tuning_runs

    def test_process_streaming_matches_and_fills_parent_database(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2, use_processes=True)
        results = pool.tune(list(CROSS_SHARD_WORKLOAD), database=db)
        assert pool.used_processes
        assert pool.stats.mode == "processes"
        assert pool.stats.worker_failures == 0
        # The parent database covers both problems whatever the timing, and
        # every fresh result is bit-identical to its direct run.
        assert len(db) == 2
        for request, result in zip(CROSS_SHARD_WORKLOAD, results):
            if not result.from_cache:
                assert _trajectory(result) == _trajectory(request.tune_direct())
            record = db.lookup(
                request.params,
                request.spec,
                request.algorithm,
                budget=request.max_measurements,
                noise=request.noise,
                noise_seed=request.noise_seed,
            )
            assert record is not None
            assert record.time_seconds <= result.best_time

    def test_unpruned_duplicates_still_coalesce_through_the_window(self):
        workload = [_request(A, pruned=False)] * 3 + [_request(B, seed=2)]
        pool = TuningWorkerPool(
            num_workers=2, admit_window=1, use_processes=False
        )
        results = pool.tune(workload)
        # All three unpruned duplicates rode one run (they can never be
        # database-served, so admission must not separate them).
        assert pool.stats.tuning_runs == 2
        assert pool.stats.coalesced == 2
        reference = workload[0].tune_direct()
        for result in results[:3]:
            assert result.best_config == reference.best_config

    def test_distant_unpruned_duplicate_coalesces_too(self):
        # Regression: a duplicate queued *behind* other requests used to be
        # admitted only after its twin's run retired, re-tuning from
        # scratch — the streaming pool then measured MORE than isolated
        # shards.  Duplicates are pulled forward at their twin's admission,
        # so the backlog distance must not matter.
        workload = [
            _request(A, pruned=False),
            _request(B, seed=1),
            _request(C, seed=1),
            _request(D, seed=1),
            _request(A, pruned=False),  # same shard as [0], two slots back
        ]
        stream_pool = TuningWorkerPool(
            num_workers=2, admit_window=1, use_processes=False
        )
        stream_results = stream_pool.tune(list(workload))
        isolated_results, isolated = isolated_shards(stream_pool, workload)
        assert stream_pool.stats.tuning_runs <= isolated.tuning_runs
        assert stream_pool.stats.measurements <= isolated.measurements
        assert stream_pool.stats.coalesced == 1
        # Ordering survives out-of-order admission: result[4] is request[4]'s.
        for a, b in zip(isolated_results, stream_results):
            assert a.best_config == b.best_config

    def test_exchange_broadcasts_the_keep_better_winner(self):
        # Regression: the exchange used to forward the raw incoming record
        # even when apply() kept a better existing one (e.g. a faster
        # caller-database record at a lower budget, upgraded on collision).
        # The other shards must be seeded with the surviving best, so a
        # served request gets what a sequential client of the shared
        # database would have been handed.
        fast_time = 1e-9  # unbeatable: any fresh run loses the collision
        fast = _record_for(_request(A), fast_time, budget=8)  # 8 < BUDGET
        db = TuningDatabase([fast])
        pool = TuningWorkerPool(
            num_workers=2, admit_window=1, use_processes=False
        )
        results = pool.tune(list(CROSS_SHARD_WORKLOAD), database=db)
        assert pool.stats.pre_served == 0  # budget 8 covers no request
        served_a = [
            result
            for request, result in zip(CROSS_SHARD_WORKLOAD, results)
            if request.params == A and result.from_cache
        ]
        assert served_a, "no A request was cross-shard served"
        for result in served_a:
            assert result.best_time == fast_time
        # The collision upgraded the fast record's budget, not replaced it.
        surviving = db.lookup(A, V100, "direct")
        assert surviving.time_seconds == fast_time
        assert surviving.budget >= BUDGET

    def test_admit_window_zero_admits_everything(self):
        pool = TuningWorkerPool(
            num_workers=2, admit_window=0, use_processes=False
        )
        results = pool.tune(list(CROSS_SHARD_WORKLOAD))
        # All-at-once admission: nothing is left in the backlog to be served
        # by a synced record, so every distinct request runs (the classic
        # batch behaviour, retained behind a knob).
        assert pool.stats.tuning_runs == 4
        assert len(results) == 4


class TestRecordInjection:
    def test_injection_never_perturbs_inflight_sessions(self):
        request = _request(B, budget=BUDGET)
        reference = request.tune_direct()
        service = TuningService()
        future = service.submit(request)
        assert service.step()  # the run is now mid-flight
        planted = _record_for(request, reference.best_time / 2, budget=10**6)
        assert service.inject_records([planted]) == [planted]
        assert service.stats.records_injected == 1
        assert service.stats.records_applied == 1
        service.drain()
        # The in-flight run never consulted the database: its trajectory is
        # bit-identical to tune_direct despite a strictly better record
        # arriving mid-run.
        assert _trajectory(future.result()) == _trajectory(reference)
        # A *new* submit is served from the injected record instead.
        repeat = service.submit(request)
        assert repeat.done() and repeat.from_database
        assert repeat.result().best_time == planted.time_seconds

    def test_losing_injection_is_counted_but_not_applied(self):
        request = _request(A)
        service = TuningService()
        service.tune([request])
        stored = service.database.lookup(A, V100, "direct")
        worse = _record_for(request, stored.time_seconds * 2)
        assert service.inject_records([worse]) == []
        assert service.stats.records_injected == 1
        assert service.stats.records_applied == 0
        assert service.database.lookup(A, V100, "direct") is stored


class TestFaultInjection:
    def test_worker_killed_mid_run_degrades_gracefully(self, monkeypatch, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("worker-kill fault injection needs fork")
        parent_pid = os.getpid()
        original_step = pool_module._ShardRunner.step

        def lethal_step(self):
            # In the worker whose first non-empty backlog leads with problem
            # B: die (SIGKILL — no cleanup, no goodbye) on its second
            # scheduling round, i.e. mid-run.  Submits reach a worker over a
            # queue, so its first rounds may see an empty backlog.  The
            # parent process (and the in-parent recovery rerun) must keep
            # the original behaviour.
            if os.getpid() != parent_pid:
                if not hasattr(self, "_doomed") and self.pending:
                    self._doomed = self.pending[0][1].params == B
                    self._rounds = 0
                if getattr(self, "_doomed", False):
                    self._rounds += 1
                    if self._rounds >= 2:
                        os.kill(os.getpid(), signal.SIGKILL)
            return original_step(self)

        monkeypatch.setattr(pool_module._ShardRunner, "step", lethal_step)
        workload = [_request(A, seed=1), _request(B, seed=1), _request(C, seed=1)]
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2, use_processes=True)
        results = pool.tune(workload, database=db)

        assert pool.used_processes
        assert pool.stats.worker_failures == 1
        # Every request is still answered, bit-identical where freshly run.
        for request, result in zip(workload, results):
            if not result.from_cache:
                assert _trajectory(result) == _trajectory(request.tune_direct())
        # The parent database is complete and uncorrupted: it holds all
        # three problems and survives a save/load round trip.
        assert len(db) == 3
        path = tmp_path / "after-kill.json"
        db.save(path)
        assert len(TuningDatabase.load(path)) == 3

    def test_poisoned_outgoing_envelopes_are_dropped_not_applied(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("cross-process poisoning needs fork")
        # Poison the wire itself: every streamed envelope turns to garbage in
        # transit.  The parent must drop and count them all, apply nothing
        # mid-run, and still produce complete results via the workers' final
        # reports.
        monkeypatch.setattr(
            RecordEnvelope,
            "to_wire",
            lambda self: {"v": 1, "origin": "??", "revision": None, "record": 13},
        )
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2, use_processes=True)
        results = pool.tune(list(CROSS_SHARD_WORKLOAD), database=db)
        assert pool.stats.poisoned_envelopes > 0
        assert pool.stats.records_streamed == 0
        assert pool.stats.records_applied == 0
        assert len(results) == len(CROSS_SHARD_WORKLOAD)
        for request, result in zip(CROSS_SHARD_WORKLOAD, results):
            if not result.from_cache:
                assert _trajectory(result) == _trajectory(request.tune_direct())
        assert len(db) == 2  # final merge still completed the database

    @pytest.mark.parametrize(
        "wire",
        [
            "junk",
            42,
            None,
            {},
            {"v": 99, "origin": 0, "revision": 0, "record": {}},
            {"v": 1, "origin": 0, "revision": 0, "record": {"gpu": "V100"}},
            {"v": 1, "origin": 0, "revision": 0, "record": "not-a-dict"},
            ("record", 0, {}),
        ],
    )
    def test_malformed_envelopes_rejected(self, wire):
        with pytest.raises(TuningDatabaseError):
            RecordEnvelope.from_wire(wire)
        assert pool_module._decode_envelope(wire) is None

    def test_nan_and_nonpositive_times_are_poison(self):
        request = _request(A)
        for bad_time in (float("nan"), float("inf"), 0.0, -1.0):
            wire = RecordEnvelope(
                record=_record_for(request, 1e-3), origin=0, revision=1
            ).to_wire()
            wire["record"]["time_seconds"] = bad_time
            with pytest.raises(TuningDatabaseError):
                RecordEnvelope.from_wire(wire)

    def test_parent_ingest_counts_poison_and_survives(self):
        pool = TuningWorkerPool(num_workers=2, use_processes=False)
        exchange = TuningDatabase()
        pool.start(database=exchange)
        assert not pool._handle_serve_message(("record", 0, {"v": 1, "record": "junk"}))
        assert not pool._handle_serve_message(("record", 1, "not even a dict"))
        assert pool.stats.poisoned_envelopes == 2
        assert pool.stats.records_streamed == 0
        assert len(exchange) == 0
        # A valid envelope still flows after the poison.
        request = _request(A)
        good = RecordEnvelope(record=_record_for(request, 1e-3)).to_wire()
        assert pool._handle_serve_message(("record", 0, good))
        assert pool.stats.records_streamed == 1
        assert pool.stats.records_applied == 1
        assert len(exchange) == 1
        pool.stop()

    @pytest.mark.parametrize(
        "message",
        [
            "not a tuple",
            ("done_one",),  # wrong arity
            ("done_one", "zero", 0, ("ok", None)),  # non-int shard index
            ("done_one", True, 0, ("ok", None)),  # bool masquerading as an index
            ("done_one", 7, 0, ("ok", None)),  # index out of range
            ("done_one", 0, "zero", ("ok", None)),  # non-int ticket
            ("done_one", 0, True, ("ok", None)),  # bool masquerading as a ticket
            ("record", 0, "junk"),  # poisoned envelope payload
            ("record", 0, {}, "extra"),  # wrong arity for its tag
            ("shrug", 0, {}),  # unknown tag
        ],
    )
    def test_corrupted_results_queue_messages_are_dropped(self, message):
        pool = TuningWorkerPool(num_workers=2, use_processes=False)
        pool.start()
        future = pool.submit(_request(A))
        assert not pool._handle_serve_message(message)
        assert pool.stats.poisoned_envelopes == 1
        assert not future.done()  # the open ticket is untouched
        pool.terminate()

    def test_malformed_completion_report_degrades_to_failure(self):
        # A completion report that fails validation must not crash the
        # parent; its ticket's future fails with a typed error instead.
        pool = TuningWorkerPool(num_workers=2, use_processes=False)
        pool.start()
        futures = [pool.submit(_request(A, seed=seed)) for seed in (1, 2, 3, 4)]
        bad_outcomes = (None, ("ok", "not a result"), ("err", "not a dict"), ("ok",))
        for ticket, outcome in zip(sorted(pool._serve_tickets), bad_outcomes):
            assert pool._handle_serve_message(("done_one", 0, ticket, outcome))
        for future in futures:
            with pytest.raises(RequestFailed, match="malformed completion report"):
                future.result(timeout=0)
        assert pool.stats.poisoned_envelopes == 4
        # A late report for an already-answered ticket is discarded.
        assert not pool._handle_serve_message(("done_one", 0, 0, ("ok", None)))
        # A goodbye from a shard with no worker process is dropped, not folded.
        assert not pool._handle_serve_message(("bye", 1, {"records": "junk"}))
        assert pool.stats.poisoned_envelopes == 5
        pool.terminate()

    def test_drain_skips_corrupted_pipe_frames(self):
        # A sender killed mid-put leaves frames that raise on deserialize;
        # _drain must skip them (bounded, no spin) and keep the good ones.
        import queue as queue_module

        class FlakyQueue:
            def __init__(self, items, bad_frames):
                self.items = list(items)
                self.bad_frames = bad_frames

            def get_nowait(self):
                if self.bad_frames:
                    self.bad_frames -= 1
                    raise EOFError("truncated pickle frame")
                if self.items:
                    return self.items.pop(0)
                raise queue_module.Empty

        assert pool_module._drain(FlakyQueue(["a", "b"], bad_frames=3)) == ["a", "b"]
        # A permanently wedged pipe terminates instead of spinning forever.
        assert pool_module._drain(FlakyQueue([], bad_frames=10**9)) == []

    def test_interrupted_save_leaves_database_intact(self, tmp_path, monkeypatch):
        # TuningDatabase.save crashing *between* writing the temp file and
        # os.replace: the previous on-disk state must survive byte-for-byte,
        # no temp litter may remain, and the database object stays usable.
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2, use_processes=False)
        pool.tune(list(CROSS_SHARD_WORKLOAD), database=db)
        path = tmp_path / "db.json"
        db.save(path)
        before = path.read_text()
        size_before = len(db)

        request = _request(C, seed=9, budget=8)
        db.put(_record_for(request, 1e-3, budget=8))
        monkeypatch.setattr(
            os, "replace", lambda *a: (_ for _ in ()).throw(OSError("power cut"))
        )
        with pytest.raises(OSError):
            db.save(path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["db.json"]
        assert len(TuningDatabase.load(path)) == size_before
        # The database itself is unharmed: the retried save persists all.
        db.save(path)
        assert len(TuningDatabase.load(path)) == len(db) == size_before + 1

    def test_truncated_database_file_is_a_loud_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        TuningDatabase([_record_for(_request(A), 1e-3)]).save(path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(TuningDatabaseError, match="trunc.json"):
            TuningDatabase.load(path)


class TestStreamingApplyProperties:
    def _record_pool(self):
        """Records with colliding keys, conditions, budgets, times — and
        exact time *ties* between different configurations, the case where
        order-independence needs the deterministic tie-break."""
        from repro.core.autotune import SearchSpace

        rng = random.Random(11)
        records = []
        for params in (A, B):
            space = SearchSpace(params, V100, "direct", pruned=True)
            configs = [space.random_configuration(rng) for _ in range(3)]
            for noise_seed in (2021, 7):
                for _ in range(5):
                    records.append(
                        TuningRecord(
                            params=params,
                            gpu="V100",
                            algorithm="direct",
                            config=rng.choice(configs),
                            time_seconds=rng.choice((1e-4, 5e-4, 1e-3)),
                            gflops=rng.uniform(1.0, 100.0),
                            budget=rng.choice((0, 8, 64, 256)),
                            noise=0.05,
                            noise_seed=noise_seed,
                        )
                    )
        return records

    @staticmethod
    def _canonical(db):
        return sorted(
            (r.key(), r.conditions(), r.time_seconds, r.config.key(), r.budget)
            for r in db.records()
        )

    def test_any_arrival_permutation_equals_bulk_merge(self):
        records = self._record_pool()
        reference = TuningDatabase()
        reference.apply(records)
        rng = random.Random(99)
        for _ in range(20):
            permutation = list(records)
            rng.shuffle(permutation)
            db = TuningDatabase()
            for record in permutation:  # one-at-a-time streaming arrival
                db.apply([record])
            assert self._canonical(db) == self._canonical(reference)

    def test_split_streams_interleaved_equal_merge(self):
        # Two shards streaming disjoint halves into a parent in alternating
        # chunks — the worker-pool topology — still equals one bulk merge.
        records = self._record_pool()
        reference = TuningDatabase()
        reference.apply(records)
        halves = (records[::2], records[1::2])
        db = TuningDatabase()
        for chunk_a, chunk_b in zip(halves[0], halves[1]):
            db.apply([chunk_a])
            db.apply([chunk_b])
        assert self._canonical(db) == self._canonical(reference)

    def test_equal_time_ties_break_deterministically(self):
        # Two shards can find *different* configs with exactly equal
        # simulated times; the survivor must be a function of the record
        # set (config-key tie-break), not of queue-arrival order.
        from repro.core.autotune import SearchSpace

        rng = random.Random(3)
        space = SearchSpace(A, V100, "direct", pruned=True)
        c1 = space.random_configuration(rng)
        c2 = space.random_configuration(rng)
        assert c1.key() != c2.key()

        def rec(config):
            return TuningRecord(
                params=A, gpu="V100", algorithm="direct", config=config,
                time_seconds=1e-3, gflops=1.0,
            )

        forward = TuningDatabase()
        forward.apply([rec(c1)])
        forward.apply([rec(c2)])
        backward = TuningDatabase()
        backward.apply([rec(c2)])
        backward.apply([rec(c1)])
        assert forward.records()[0].config == backward.records()[0].config
        assert forward.records()[0].config.key() == min(c1.key(), c2.key())

    def test_revision_streams_only_effective_changes(self):
        request = _request(A)
        slow = _record_for(request, 2e-3)
        fast = _record_for(request, 1e-3)
        db = TuningDatabase()
        rev0 = db.revision
        assert db.apply([slow]) == [slow]
        assert db.changes_since(rev0) == [slow]
        mark = db.revision
        assert db.apply([slow]) == []  # idempotent: no re-broadcast
        assert db.changes_since(mark) == []
        assert db.apply([fast]) == [fast]
        assert db.changes_since(mark) == [fast]
        assert db.apply([slow]) == []  # monotonic: can never regress
        assert db.revision == mark + 1

    def test_change_log_compacts_with_safe_over_delivery(self, monkeypatch):
        # A daemon-lifetime database must not grow its change log forever;
        # once compacted, a stale checkpoint over-delivers (harmless under
        # keep-better apply) while fresh checkpoints still stream exactly
        # the tail.
        import repro.core.autotune.store as store_module

        monkeypatch.setattr(store_module, "_CHANGE_LOG_CAP", 8)
        base = _record_for(_request(A), 1e-3)
        db = TuningDatabase()
        for i in range(40):  # 40 effective inserts, distinct problems
            db.put(
                TuningRecord(
                    params=A.with_batch(i + 1), gpu="V100", algorithm="direct",
                    config=base.config, time_seconds=1e-3, gflops=1.0,
                )
            )
        assert db.revision == 40
        assert len(db.store._change_log) < 2 * 8
        # Stale checkpoint (compacted away): the whole map is delivered.
        assert len(db.changes_since(0)) == 40
        # Fresh checkpoint: exactly the records stored after it.
        mark = db.revision
        late = TuningRecord(
            params=A.with_batch(99), gpu="V100", algorithm="direct",
            config=base.config, time_seconds=1e-3, gflops=1.0,
        )
        db.put(late)
        assert db.changes_since(mark) == [late]

    def test_envelope_wire_round_trip(self):
        record = _record_for(_request(B), 3e-4)
        envelope = RecordEnvelope(record=record, origin=3, revision=17)
        decoded = RecordEnvelope.from_wire(envelope.to_wire())
        assert decoded == envelope


@pytest.mark.slow
class TestSubmitStress:
    """Hammer ``submit()`` from 16 threads while records stream in.

    Seeded and exact: whatever the interleaving, the accounting identity
    ``coalesced + database_hits + tuning_runs == requests`` must hold and
    every future must resolve to the distinct request's reference optimum
    (fresh runs are bit-identical; served runs return the planted/stored
    record, which *is* the reference best).
    """

    THREADS = 16
    PER_THREAD = 12

    def test_hammered_submit_accounting_stays_exact(self):
        # Four distinct problems (not problem variants): each request has
        # exactly one record that can ever serve it, so per-request
        # reference equality stays exact under any serving interleaving.
        distinct = [
            _request(A, seed=1),
            _request(B, seed=1),
            _request(C, seed=1),
            _request(D, seed=1, budget=16),
        ]
        references = {r: r.tune_direct() for r in distinct}
        # Records streamed in mid-run are exactly the reference optima, so a
        # submit served by one still resolves to its reference best.
        records = [
            TuningRecord(
                params=r.params,
                gpu=r.spec.name,
                algorithm=r.algorithm,
                config=references[r].best_config,
                time_seconds=references[r].best_time,
                gflops=references[r].best_trial.gflops,
                budget=r.max_measurements,
                noise=r.noise,
                noise_seed=r.noise_seed,
            )
            for r in distinct
        ]

        service = TuningService()
        futures = []
        futures_lock = threading.Lock()
        start = threading.Barrier(self.THREADS + 1)
        stop_injecting = threading.Event()

        def client(thread_index):
            rng = random.Random(1000 + thread_index)
            start.wait()
            for _ in range(self.PER_THREAD):
                request = rng.choice(distinct)
                future = service.submit(request)
                with futures_lock:
                    futures.append((request, future))

        def injector():
            rng = random.Random(4242)
            while not stop_injecting.is_set():
                service.inject_records([rng.choice(records)])
                time.sleep(0.0005)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(self.THREADS)
        ]
        injection_thread = threading.Thread(target=injector)
        for thread in threads:
            thread.start()
        injection_thread.start()
        start.wait()
        # Drive scheduling concurrently with the submitters, like a
        # production driver thread would.
        clock = MonotonicClock()
        deadline = clock.now() + 120.0
        while any(thread.is_alive() for thread in threads):
            service.drain()
            assert clock.now() < deadline, "stress drive wedged"
        for thread in threads:
            thread.join()
        service.drain()
        stop_injecting.set()
        injection_thread.join()

        stats = service.stats
        total = self.THREADS * self.PER_THREAD
        assert stats.requests == total
        # Exact conservation: every request was answered exactly one way.
        assert stats.coalesced + stats.database_hits + stats.tuning_runs == total
        # Coalescing + serving keep fresh runs at or under one per distinct
        # request (injection can only shave runs off, never add them).
        assert stats.tuning_runs <= len(distinct)
        assert stats.completed_runs == stats.tuning_runs
        for request, future in futures:
            result = future.result(timeout=10)
            reference = references[request]
            assert result.best_time == reference.best_time
            assert result.best_config == reference.best_config
        assert service.num_active == 0
        assert len(service.coalescer) == 0


# -- long-lived serving mode ----------------------------------------------- #
def _pump(pool, limit=200_000):
    """Drive pool.step() to quiescence (bounded; fails loudly if wedged)."""
    for _ in range(limit):
        if not pool.step():
            return
    raise AssertionError("serving pool never went idle")


class TestServingMode:
    """The pool's submit/drain-incremental mode (what backs the daemon)."""

    def test_serial_serving_is_bit_identical_and_coalesces(self):
        pool = TuningWorkerPool(num_workers=3, use_processes=False)
        pool.start()
        assert pool.serving
        requests = [_request(A, seed=1), _request(B, seed=1), _request(A, seed=2)]
        futures = [pool.submit(r) for r in requests]
        duplicate = pool.submit(_request(A, seed=1))  # same rid as futures[0]
        _pump(pool)
        for request, future in zip(requests, futures):
            assert _trajectory(future.result()) == _trajectory(request.tune_direct())
        # The duplicate coalesced inside its shard: one run, two answers.
        assert duplicate.done()
        assert pool.stats.coalesced == 1
        assert pool.stats.tuning_runs == 3
        pool.stop()
        assert not pool.serving

    def test_shard_assignment_is_rid_stable(self):
        # Equal requests always land in the same shard — across deadline
        # variants (excluded from the rid) and across pool instances (no
        # dependence on Python's per-process salted hash()).
        for shards in (1, 2, 3, 7):
            a = pool_module._shard_for_request(_request(A, seed=1), shards)
            b = pool_module._shard_for_request(_request(A, seed=1, deadline=9.0), shards)
            assert a == b
            assert 0 <= a < shards

    def test_tune_refuses_while_serving_and_submit_refuses_before_start(self):
        pool = TuningWorkerPool(num_workers=1, use_processes=False)
        with pytest.raises(RuntimeError):
            pool.submit(_request())
        pool.start()
        with pytest.raises(RuntimeError):
            pool.tune([_request()])
        with pytest.raises(RuntimeError):
            pool.start()
        pool.stop()
        # A stopped pool is reusable: batch mode works again.
        assert pool.tune([_request(budget=6)])[0].num_measurements > 0

    def test_serving_records_pre_serve_after_restart(self):
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2, use_processes=False)
        pool.start(database=db)
        first = pool.submit(_request(A, seed=1))
        _pump(pool)
        pool.stop()
        assert len(db) == 1
        pool.start(database=db)
        again = pool.submit(_request(A, seed=1))
        _pump(pool)
        pool.stop()
        assert again.from_database
        assert again.result().best_time == first.result().best_time
        assert pool.stats.measurements == 0  # second session: zero re-measurement

    def test_stop_drains_the_backlog(self):
        pool = TuningWorkerPool(num_workers=1, use_processes=False)
        pool.start()
        request = _request(A, seed=1, budget=24)
        future = pool.submit(request)
        # No pumping: stop() drains the backlog itself, so the future
        # resolves with the real (bit-identical) result, not a cancellation.
        pool.stop()
        assert future.done()
        assert _trajectory(future.result()) == _trajectory(request.tune_direct())

    def test_cancel_answers_every_waiter_and_unqueues(self):
        pool = TuningWorkerPool(num_workers=1, use_processes=False)
        pool.start()
        request = _request(A, seed=1, budget=200)
        future = pool.submit(request)
        survivor = pool.submit(_request(B, seed=1, budget=6))
        assert pool.cancel(request)
        assert future.done()
        with pytest.raises(Exception):
            future.result()
        _pump(pool)
        assert survivor.done()
        assert _trajectory(survivor.result()) == _trajectory(
            _request(B, seed=1, budget=6).tune_direct()
        )
        pool.stop()

    def test_plain_shard_failure_arrives_as_request_failed(self, monkeypatch):
        # An in-parent shard reports through the worker's wire shapes, so a
        # failure that is not a typed RequestError reaches the pool future
        # as RequestFailed, exactly as it would from a worker process.
        def fails(self, configs):
            raise ValueError("lowering broke")

        monkeypatch.setattr(Measurer, "prepare_batch", fails)
        pool = TuningWorkerPool(num_workers=1, use_processes=False)
        pool.start()
        future = pool.submit(_request(A, seed=1))
        _pump(pool)
        with pytest.raises(RequestFailed, match="lowering broke"):
            future.result(timeout=0)
        pool.stop()

    def test_terminate_fails_futures_and_pool_restarts(self):
        pool = TuningWorkerPool(num_workers=1, use_processes=False)
        pool.start()
        future = pool.submit(_request(A, seed=1, budget=200))
        pool.terminate()
        assert future.done()
        assert not pool.serving
        pool.start()
        pool.stop()

    def test_process_serving_matches_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("process serving comparison needs fork")
        requests = [_request(A, seed=1), _request(B, seed=1), _request(C, seed=2)]
        serial_pool = TuningWorkerPool(num_workers=2, use_processes=False)
        serial_pool.start()
        serial = [serial_pool.submit(r) for r in requests]
        _pump(serial_pool)
        serial_pool.stop()

        proc_pool = TuningWorkerPool(num_workers=2, use_processes=True)
        proc_pool.start()
        assert proc_pool.used_processes
        procs = [proc_pool.submit(r) for r in requests]
        _pump(proc_pool)
        proc_pool.stop()
        for s, p in zip(serial, procs):
            assert _trajectory(s.result()) == _trajectory(p.result())

    def test_serving_worker_sigkill_fails_over(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("worker-kill fault injection needs fork")
        db = TuningDatabase()
        pool = TuningWorkerPool(num_workers=2, use_processes=True)
        pool.start(database=db)
        futures = [
            pool.submit(_request(A, seed=1, budget=40)),
            pool.submit(_request(B, seed=1, budget=40)),
        ]
        victim_shard = pool._serve_tickets[0][0]
        os.kill(pool._serve_workers[victim_shard].pid, signal.SIGKILL)
        _pump(pool)
        for request, future in zip([_request(A, seed=1, budget=40), _request(B, seed=1, budget=40)], futures):
            result = future.result()
            if not result.from_cache:
                assert _trajectory(result) == _trajectory(request.tune_direct())
        pool.stop()
        assert pool.stats.worker_failures == 1
        assert len(db) == 2  # both problems landed despite the kill

    def test_workers_obey_sigterm_and_exit_when_orphaned(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("forked-worker signal handling needs fork")
        # The parent installs its own SIGTERM handler before forking, as
        # serve_forever does; workers must not keep running on its copy.
        script = (
            "import signal, time\n"
            "from repro.service import TuningWorkerPool\n"
            "signal.signal(signal.SIGTERM, lambda signum, frame: None)\n"
            "pool = TuningWorkerPool(num_workers=2, use_processes=True)\n"
            "pool.start()\n"
            "print(*(p.pid for p in pool._serve_workers.values()), flush=True)\n"
            "while True:\n"
            "    pool.step()\n"
            "    time.sleep(0.05)\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        workers = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2

            def sigterm_ends_worker():
                # Re-sent each poll: a worker still running the inherited
                # handler just after the fork swallows the signal.
                try:
                    os.kill(workers[0], signal.SIGTERM)
                except ProcessLookupError:
                    return True
                return not _running(workers[0])

            assert _wait_until(sigterm_ends_worker), "a SIGTERMed worker kept running"
            parent.kill()
            parent.wait(timeout=10)
            assert _wait_until(lambda: not _running(workers[1])), (
                "a worker outlived its SIGKILLed parent"
            )
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
            for pid in filter(_running, workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _wait_until(predicate, timeout=10.0, interval=0.05):
    for _ in range(int(timeout / interval)):
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    if os.path.exists("/proc/self/stat"):
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return False
        return state != "Z"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
