"""Tests for the RecordStore backend protocol behind TuningDatabase.

Covers the backend contract (append/scan/changes_since/snapshot/recover)
for both backends, the LogStore's append-only durability + compaction (its
crash recovery is in ``test_append_log.py``, shared with the request
journal), the format-1 header versioning, the deprecation shims,
structured ``describe()``, and the acceptance property that swapping
backends changes no tuning trajectory for the service or the streaming
pool.
"""

import dataclasses
import json
import os
import random
import threading
import warnings

import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    JsonMapStore,
    LogStore,
    SearchSpace,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
)
from repro.core.autotune.store import FORMAT_VERSION
from repro.gpusim import V100
from repro.obs import MetricsRegistry, format_describe
from repro.service import TuningRequest, TuningService, TuningWorkerPool

LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
THIRD = ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1)


def _record(params=LAYER, gpu="V100", algorithm="direct", time_seconds=1e-3, **kw):
    space = SearchSpace(params, V100, algorithm, pruned=True)
    config = space.random_configuration(random.Random(0))
    return TuningRecord(
        params=params,
        gpu=gpu,
        algorithm=algorithm,
        config=config,
        time_seconds=time_seconds,
        gflops=123.0,
        **kw,
    )


def _records(n, time_seconds=1e-3):
    """n records with distinct problem keys (distinct batch sizes)."""
    return [
        _record(params=LAYER.with_batch(i + 1), time_seconds=time_seconds)
        for i in range(n)
    ]


def _canonical(store_or_db):
    records = (
        store_or_db.scan()
        if hasattr(store_or_db, "scan")
        else store_or_db.records()
    )
    return sorted(
        (r.key(), r.conditions(), r.time_seconds, r.config.key(), r.budget)
        for r in records
    )


def _make_store(kind, tmp_path, **kw):
    if kind == "map":
        return JsonMapStore(path=tmp_path / "db.json", **kw)
    return LogStore(tmp_path / "db.log", **kw)


@pytest.mark.parametrize("kind", ["map", "log"])
class TestRecordStoreProtocol:
    def test_append_scan_len(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        record = _record()
        winner, effective = store.append(record)
        assert winner is record and effective
        assert len(store) == 1
        assert store.scan() == [record]
        store.close()

    def test_append_keep_better_is_effective_only_on_change(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        slow, fast = _record(time_seconds=2e-3), _record(time_seconds=1e-3)
        assert store.append(slow) == (slow, True)
        winner, effective = store.append(fast)
        assert winner is fast and effective
        # A losing record changes nothing and is not effective.
        assert store.append(slow) == (fast, False)
        assert len(store) == 1
        store.close()

    def test_budget_upgrade_is_effective(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append(_record(time_seconds=1e-3, budget=10))
        winner, effective = store.append(_record(time_seconds=2e-3, budget=99))
        assert effective and winner.budget == 99
        assert winner.time_seconds == 1e-3  # faster record survived
        store.close()

    def test_serve_returns_published_bucket(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        record = _record()
        store.append(record)
        bucket = store.serve(record.key())
        assert bucket[record.conditions()] is record
        assert store.serve(("missing", "V100", "direct")) == {}
        store.close()

    def test_revision_and_changes_since(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        assert store.revision == 0
        a, b = _records(2)
        store.append(a)
        mark = store.revision
        assert mark == 1
        store.append(b)
        assert store.changes_since(mark) == [b]
        assert store.changes_since(0) == [a, b]
        assert store.changes_since(store.revision) == []
        store.close()

    def test_snapshot_recover_round_trip(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        for record in _records(5):
            store.append(record)
        before = _canonical(store)
        store.snapshot()
        store.close()
        fresh = _make_store(kind, tmp_path)
        fresh.recover()
        assert _canonical(fresh) == before
        # Recovery pins the change-log base: a stale replica checkpoint
        # over-delivers the whole map (safe), never misses changes.
        assert len(fresh.changes_since(0)) == 5
        fresh.close()

    def test_describe_is_json_native(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append(_record())
        info = store.describe()
        assert info["kind"] == kind
        assert info["records"] == 1
        json.dumps(info)  # must be wire-serializable as-is
        store.close()


class TestLogStoreDurability:
    def test_appends_survive_reopen_without_snapshot(self, tmp_path):
        path = tmp_path / "db.log"
        store = LogStore(path)
        for record in _records(8):
            store.append(record)
        before = _canonical(store)
        revision = store.revision
        store.close()
        reopened = LogStore(path)
        assert _canonical(reopened) == before
        assert reopened.revision == revision
        reopened.close()

    def test_only_effective_appends_grow_the_log(self, tmp_path):
        path = tmp_path / "db.log"
        store = LogStore(path)
        store.append(_record(time_seconds=1e-3))
        size = os.path.getsize(path)
        store.append(_record(time_seconds=2e-3))  # loses: not logged
        assert os.path.getsize(path) == size
        store.close()

    def test_reopened_store_continues_appending(self, tmp_path):
        path = tmp_path / "db.log"
        store = LogStore(path)
        store.append(_record())
        store.close()
        reopened = LogStore(path)
        reopened.append(_record(params=SMALL))
        reopened.close()
        final = LogStore(path)
        assert len(final) == 2
        final.close()

    def test_closed_store_rejects_appends_but_serves(self, tmp_path):
        record = _record()
        store = LogStore(tmp_path / "db.log")
        store.append(record)
        store.close()
        store.close()  # idempotent
        assert store.serve(record.key())[record.conditions()] is record
        with pytest.raises(TuningDatabaseError, match="closed"):
            store.append(_record(params=SMALL))

    def test_compaction_triggers_on_dead_ratio(self, tmp_path):
        path = tmp_path / "db.log"
        store = LogStore(path, compact_min_entries=8, compact_dead_ratio=0.5)
        # Repeatedly improve the same 4 slots: the tail goes mostly dead.
        for round_index in range(10):
            for record in _records(4, time_seconds=1e-3 / (round_index + 1)):
                store.append(record)
        assert os.path.exists(store.snapshot_path)
        info = store.describe()
        # The live set never exceeds 4 records, so the reset log stays small.
        assert info["records"] == 4
        assert info["log_entries"] < 8
        before = _canonical(store)
        store.close()
        recovered = LogStore(path)
        assert _canonical(recovered) == before
        recovered.close()

    def test_no_compaction_without_dead_records(self, tmp_path):
        store = LogStore(tmp_path / "db.log", compact_min_entries=8)
        for record in _records(50):  # all distinct: nothing is dead
            store.append(record)
        assert not os.path.exists(store.snapshot_path)
        store.close()

    def test_explicit_snapshot_bounds_the_tail(self, tmp_path):
        path = tmp_path / "db.log"
        store = LogStore(path)
        for record in _records(20):
            store.append(record)
        store.snapshot()
        assert store.describe()["log_entries"] == 0
        store.append(_record(params=SMALL))
        store.close()
        # Recovery = snapshot fold (20) + tail replay (1).
        recovered = LogStore(path)
        assert len(recovered) == 21
        recovered.close()

    def test_fsync_appends_mode(self, tmp_path):
        store = LogStore(tmp_path / "db.log", fsync_appends=True)
        for record in _records(3):
            store.append(record)
        assert len(store) == 3
        store.close()

    def test_bad_compact_ratio_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="compact_dead_ratio"):
            LogStore(tmp_path / "db.log", compact_dead_ratio=0.0)

    def test_concurrent_appends_with_lockfree_lookups(self, tmp_path):
        db = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        errors = []

        def writer(offset):
            try:
                for i in range(50):
                    db.put(_record(params=LAYER.with_batch(offset * 50 + i + 1)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                for _ in range(100):
                    db.lookup(LAYER, V100, "direct")
                    db.records()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(db) == 200
        db.close()


class TestFormatVersioning:
    def test_map_load_names_newer_format(self, tmp_path):
        path = tmp_path / "db.json"
        newer = FORMAT_VERSION + 1
        path.write_text(json.dumps({"format": newer, "kind": "map", "records": []}))
        with pytest.raises(TuningDatabaseError) as excinfo:
            TuningDatabase.load(path)
        assert f"format {newer}" in str(excinfo.value)

    def test_map_files_carry_format_header(self, tmp_path):
        path = tmp_path / "db.json"
        TuningDatabase([_record()]).save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == FORMAT_VERSION
        assert payload["kind"] == "map"
        assert payload["version"] == FORMAT_VERSION  # legacy readers

    def test_legacy_map_file_without_format_still_loads(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(
            json.dumps({"version": 1, "records": [_record().to_dict()]})
        )
        assert len(TuningDatabase.load(path)) == 1

    def test_load_rejects_log_file_with_guidance(self, tmp_path):
        # A header-only log parses as one JSON object; the kind check
        # steers the caller toward the right entry point.
        header_only = tmp_path / "header-only.log"
        LogStore(header_only).close()
        with pytest.raises(TuningDatabaseError, match="TuningDatabase.open"):
            TuningDatabase.load(header_only)
        # A log with records is multi-line JSON: json.load fails first,
        # and the error already hints at the append-only log case.
        path = tmp_path / "db.log"
        store = LogStore(path)
        store.append(_record())
        store.close()
        with pytest.raises(TuningDatabaseError, match="append-only"):
            TuningDatabase.load(path)

    def test_open_sniffs_both_backends(self, tmp_path):
        record = _record()
        map_path = tmp_path / "db.json"
        TuningDatabase([record]).save(map_path)
        opened = TuningDatabase.open(map_path)
        assert isinstance(opened.store, JsonMapStore)
        assert len(opened) == 1

        log_path = tmp_path / "db.log"
        db = TuningDatabase(store=LogStore(log_path))
        db.put(record)
        db.close()
        opened = TuningDatabase.open(log_path)
        assert isinstance(opened.store, LogStore)
        assert len(opened) == 1
        assert opened.lookup(record.params, record.gpu, record.algorithm) == record
        opened.close()


class TestRemovedShims:
    """The PR 8 ``add_result``/``merge`` DeprecationWarning shims served
    their one release and are gone; the migrated spellings are the API."""

    def test_shims_are_gone(self):
        db = TuningDatabase()
        assert not hasattr(db, "add_result")
        assert not hasattr(db, "merge")

    def test_migrated_write_path_is_warning_free(self):
        record = _record()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db = TuningDatabase()
            db.put(TuningRecord.from_result(record.as_result(), budget=7))
            db.apply([_record(params=SMALL)])
        assert len(db) == 2

    def test_from_result_builds_equivalent_record(self):
        record = _record(budget=0)
        result = record.as_result()
        built = TuningRecord.from_result(result, budget=9, noise=0.5, noise_seed=3)
        assert built.config == record.config
        assert built.time_seconds == record.time_seconds
        assert built.budget == 9
        assert built.conditions() == (0.5, 3)


class TestStructuredDescribe:
    def test_database_describe_is_dict(self, tmp_path):
        db = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        db.put(_record())
        db.lookup(LAYER, V100, "direct")
        db.lookup(SMALL, V100, "direct")
        info = db.describe()
        assert info["kind"] == "TuningDatabase"
        assert info["records"] == 1
        assert (info["hits"], info["misses"]) == (1, 1)
        assert info["store"]["kind"] == "log"
        json.dumps(info)  # wire-ready
        db.close()

    def test_service_describe_is_dict(self):
        service = TuningService()
        service.tune([TuningRequest(SMALL, V100, max_measurements=8, seed=1)])
        info = service.describe()
        assert info["kind"] == "TuningService"
        assert info["active"] == 0
        assert info["stats"]["requests"] == 1
        assert info["database"]["kind"] == "TuningDatabase"
        json.dumps(info)

    def test_format_describe_renders_human_line(self):
        db = TuningDatabase([_record()])
        text = format_describe(db.describe())
        assert text.startswith("TuningDatabase[")
        assert "records=1" in text
        assert "map[" in text  # nested backend describe

    def test_format_describe_non_dict_falls_back(self):
        assert format_describe(7) == "7"


class TestStoreMetrics:
    def test_db_store_metric_names(self, tmp_path):
        registry = MetricsRegistry()
        db = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        db.attach_metrics(registry.scope("db"))
        slow, fast = _record(time_seconds=2e-3), _record(time_seconds=1e-3)
        db.put(slow)
        db.put(fast)
        db.put(slow)  # loses
        counters = registry.snapshot().counters
        gauges = registry.snapshot().gauges
        assert counters["db.puts_total"] == 3
        assert counters["db.puts_effective"] == 2
        assert counters["db.store.appends_total"] == 3
        assert counters["db.store.appends_effective"] == 2
        assert counters["db.store.log_appends"] == 2
        assert gauges["db.store.live_records"] == 1
        assert gauges["db.store.log_entries"] == 2
        assert gauges["db.store.dead_entries"] == 1
        db.close()

    def test_compaction_and_recovery_metrics(self, tmp_path):
        registry = MetricsRegistry()
        store = LogStore(
            tmp_path / "db.log", compact_min_entries=4, compact_dead_ratio=0.5
        )
        store.attach_metrics(registry.scope("db.store"))
        for round_index in range(8):
            store.append(_record(time_seconds=1e-3 / (round_index + 1)))
        counters = registry.snapshot().counters
        assert counters["db.store.compactions"] >= 1
        assert counters["db.store.compaction_records"] >= 1
        store.recover()
        counters = registry.snapshot().counters
        assert counters["db.store.recoveries"] == 1
        assert counters["db.store.recovered_records"] == 1
        store.close()


class TestBackendBitIdentity:
    """Acceptance: swapping backends changes no tuning trajectory."""

    def _workload(self):
        return [
            TuningRequest(SMALL, V100, max_measurements=10, seed=1),
            TuningRequest(LAYER, V100, max_measurements=10, seed=2),
            TuningRequest(SMALL, V100, max_measurements=10, seed=1),  # duplicate
            TuningRequest(THIRD, V100, max_measurements=10, seed=3),
        ]

    @staticmethod
    def _trajectories(results):
        return [
            [(t.config.key(), t.time_seconds) for t in result.trials]
            for result in results
        ]

    def test_service_trajectories_identical_across_backends(self, tmp_path):
        map_service = TuningService(database=TuningDatabase())
        map_results = map_service.tune(self._workload())
        log_db = TuningDatabase(store=LogStore(tmp_path / "svc.log"))
        log_service = TuningService(database=log_db)
        log_results = log_service.tune(self._workload())
        assert self._trajectories(map_results) == self._trajectories(log_results)
        assert map_service.stats.measurements == log_service.stats.measurements
        assert _canonical(map_service.database) == _canonical(log_service.database)
        log_db.close()

    def test_streaming_pool_trajectories_identical_across_backends(self, tmp_path):
        workload = self._workload() * 2
        results = {}
        databases = {}
        for backend in ("map", "log"):
            pool = TuningWorkerPool(
                num_workers=2,
                use_processes=False,
                store_dir=(
                    os.path.join(tmp_path, "shards") if backend == "log" else None
                ),
            )
            exchange = TuningDatabase()
            results[backend] = pool.tune(workload, database=exchange)
            databases[backend] = exchange
        assert self._trajectories(results["map"]) == self._trajectories(
            results["log"]
        )
        assert _canonical(databases["map"]) == _canonical(databases["log"])
        # The durable run left per-shard logs behind, compacted at drain
        # (drain_store snapshots each store so a restart replays a short
        # tail instead of the whole workload's appends).
        assert sorted(os.listdir(os.path.join(tmp_path, "shards"))) == [
            "shard-0.log",
            "shard-0.log.snap",
            "shard-1.log",
            "shard-1.log.snap",
        ]


class TestPoolDurability:
    def test_shard_runner_recovers_from_previous_log(self, tmp_path):
        from repro.service.pool import _ShardRunner

        path = os.path.join(tmp_path, "shard-0.log")
        first = _ShardRunner(store_path=path)
        planted = _record()
        first.service.database.put(planted)
        first.service.database.close()
        # A restarted shard starts from its log, not from empty.
        second = _ShardRunner(store_path=path)
        assert second.service.database.records() == [planted]
        # Recovered records predate the streaming checkpoint: they are not
        # re-broadcast as if this incarnation had just tuned them.
        assert second.take_new_records() == []
        second.service.database.close()

    def test_parent_recovers_dead_shard_log(self, tmp_path):
        pool = TuningWorkerPool(
            num_workers=2, use_processes=False, store_dir=str(tmp_path)
        )
        pool._reset_accounting()
        # Simulate a worker that persisted two records and died unstreamed.
        dead_store = LogStore(pool._shard_store_path(1))
        for record in _records(2):
            dead_store.append(record)
        dead_store.close()
        exchange = TuningDatabase()
        assert pool._recover_shard_store(1, exchange) == 2
        assert len(exchange) == 2
        assert pool.stats.records_recovered == 2

    def test_parent_recovery_tolerates_missing_and_corrupt_logs(self, tmp_path):
        pool = TuningWorkerPool(
            num_workers=2, use_processes=False, store_dir=str(tmp_path)
        )
        pool._reset_accounting()
        exchange = TuningDatabase()
        # Missing log: the worker died before its first put.
        assert pool._recover_shard_store(0, exchange) == 0
        # Corrupt log: counted as poisoned, never crashes the parent.
        with open(pool._shard_store_path(1), "w", encoding="utf-8") as fh:
            fh.write('{"format": 1, "kind": "log"}\n{"rev": torn\n{"rev": 2}\n')
        assert pool._recover_shard_store(1, exchange) == 0
        assert pool.stats.poisoned_envelopes == 1
        assert pool.stats.records_recovered == 0


class TestFacade:
    def test_put_and_lookup_identity_with_log_backend(self, tmp_path):
        db = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        fast, slow = _record(time_seconds=1e-3), _record(time_seconds=2e-3)
        assert db.put(fast) is fast
        assert db.put(slow) is fast
        assert db.lookup(LAYER, V100, "direct") is fast
        db.close()

    def test_store_and_path_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            TuningDatabase(
                path=tmp_path / "a.json", store=JsonMapStore(path=tmp_path / "b.json")
            )

    def test_save_without_path_snapshots_the_backend(self, tmp_path):
        path = tmp_path / "db.log"
        db = TuningDatabase(store=LogStore(path))
        db.put(_record())
        assert db.save() == str(path) + ".snap"
        db.close()

    def test_save_with_explicit_path_exports_portable_map(self, tmp_path):
        db = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        db.put(_record())
        exported = db.save(tmp_path / "export.json")
        loaded = TuningDatabase.load(exported)
        assert _canonical(loaded) == _canonical(db)
        db.close()

    def test_engine_results_flow_through_store(self, tmp_path):
        from repro.core.autotune import AutoTuningEngine

        db = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        result = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=8, seed=1, database=db
        ).tune()
        assert not result.from_cache
        db.close()
        # The tuned record survives the process: a fresh engine on a
        # recovered database is served from cache with zero measurements.
        recovered = TuningDatabase(store=LogStore(tmp_path / "db.log"))
        again = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=8, seed=1, database=recovered
        ).tune()
        assert again.from_cache
        recovered.close()
