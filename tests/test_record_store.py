"""Tests for the record store inside TuningDatabase.

Covers the store contract (put/apply/records/lookup/changes_since) in memory
and on a log, the log's durability + compaction (its crash recovery is in
``test_append_log.py``, shared with the request journal), the format-1
header versioning and the in-place conversion of a JSON map, the removed
shims, structured ``describe()``, and the acceptance property that a
log-backed database changes no tuning trajectory for the service or the
streaming pool.
"""

import dataclasses
import errno
import json
import os
import random
import stat
import threading
import warnings

import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    SearchSpace,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
)
from repro.core.autotune.store import FORMAT_VERSION
from repro.gpusim import V100
from repro.obs import MetricsRegistry, format_describe
from repro.service import RequestJournal, TuningRequest, TuningService, TuningWorkerPool

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


def _canonical(db):
    return sorted(
        (r.key(), r.conditions(), r.time_seconds, r.config.key(), r.budget)
        for r in db.records()
    )


def _make_db(kind, tmp_path):
    if kind == "memory":
        return TuningDatabase()
    return TuningDatabase(path=tmp_path / "db.log")


def _fail_next_fsync(monkeypatch):
    """Make the next ``os.fsync`` fail once, as a full disk would."""
    real_fsync = os.fsync
    failures = []

    def fsync_fails_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_fails_once)


@pytest.mark.parametrize("kind", ["memory", "log"])
class TestRecordStoreProtocol:
    def test_put_records_len(self, kind, tmp_path):
        db = _make_db(kind, tmp_path)
        record = _record()
        assert db.put(record) is record
        assert len(db) == 1
        assert db.records() == [record]
        db.close()

    def test_put_keep_better_is_effective_only_on_change(self, kind, tmp_path):
        db = _make_db(kind, tmp_path)
        slow, fast = _record(time_seconds=2e-3), _record(time_seconds=1e-3)
        assert db.apply([slow]) == [slow]
        assert db.apply([fast]) == [fast]
        # A losing record changes nothing and is not effective.
        assert db.apply([slow]) == []
        assert db.put(slow) is fast
        assert len(db) == 1
        db.close()

    def test_budget_upgrade_is_effective(self, kind, tmp_path):
        db = _make_db(kind, tmp_path)
        db.put(_record(time_seconds=1e-3, budget=10))
        (winner,) = db.apply([_record(time_seconds=2e-3, budget=99)])
        assert winner.budget == 99
        assert winner.time_seconds == 1e-3  # faster record survived
        db.close()

    def test_lookup_reads_the_published_bucket(self, kind, tmp_path):
        db = _make_db(kind, tmp_path)
        record = _record()
        db.put(record)
        assert db.lookup(LAYER, V100, "direct") is record
        assert db.lookup(SMALL, V100, "direct") is None
        db.close()

    def test_revision_and_changes_since(self, kind, tmp_path):
        db = _make_db(kind, tmp_path)
        assert db.revision == 0
        a, b = _records(2)
        db.put(a)
        mark = db.revision
        assert mark == 1
        db.put(b)
        assert db.changes_since(mark) == [b]
        assert db.changes_since(0) == [a, b]
        assert db.changes_since(db.revision) == []
        db.close()

    def test_describe_is_json_native(self, kind, tmp_path):
        db = _make_db(kind, tmp_path)
        db.put(_record())
        info = db.describe()
        assert info["store"] == kind
        assert info["records"] == 1
        json.dumps(info)  # must be wire-serializable as-is
        db.close()


class TestMemoryStore:
    def test_memory_store_touches_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        db = TuningDatabase()
        for record in _records(3):
            db.put(record)
        with pytest.raises(ValueError, match="no path"):
            db.save()
        with pytest.raises(TuningDatabaseError, match="without a path"):
            db.recover()
        assert len(db) == 3  # a refused recover drops nothing
        assert set(db.describe()) == {"kind", "store", "records", "hits", "misses", "revision"}
        db.close()
        assert os.listdir(tmp_path) == []


class TestRecordLogDurability:
    def test_snapshot_recover_round_trip(self, tmp_path):
        db = _make_db("log", tmp_path)
        for record in _records(5):
            db.put(record)
        before = _canonical(db)
        db.save()
        db.close()
        fresh = _make_db("log", tmp_path)
        fresh.recover()
        assert _canonical(fresh) == before
        # Recovery pins the change-log base: a stale replica checkpoint
        # over-delivers the whole map (safe), never misses changes.
        assert len(fresh.changes_since(0)) == 5
        fresh.close()

    def test_appends_survive_reopen_without_snapshot(self, tmp_path):
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        for record in _records(8):
            db.put(record)
        before = _canonical(db)
        revision = db.revision
        db.close()
        reopened = TuningDatabase(path=path)
        assert _canonical(reopened) == before
        assert reopened.revision == revision
        reopened.close()

    def test_only_effective_appends_grow_the_log(self, tmp_path):
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        db.put(_record(time_seconds=1e-3))
        size = os.path.getsize(path)
        db.put(_record(time_seconds=2e-3))  # loses: not logged
        assert os.path.getsize(path) == size
        db.close()

    def test_reopened_store_continues_appending(self, tmp_path):
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        db.put(_record())
        db.close()
        reopened = TuningDatabase(path=path)
        reopened.put(_record(params=SMALL))
        reopened.close()
        final = TuningDatabase(path=path)
        assert len(final) == 2
        final.close()

    def test_closed_store_rejects_appends_but_serves(self, tmp_path):
        record = _record()
        db = TuningDatabase(path=tmp_path / "db.log")
        db.put(record)
        db.close()
        db.close()  # idempotent
        assert db.lookup(LAYER, V100, "direct") is record
        with pytest.raises(TuningDatabaseError, match="closed"):
            db.put(_record(params=SMALL))

    def test_compaction_triggers_on_dead_ratio(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TuningDatabase, "COMPACT_MIN_ENTRIES", 8)
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        # Repeatedly improve the same 4 slots: the tail goes mostly dead.
        for round_index in range(10):
            for record in _records(4, time_seconds=1e-3 / (round_index + 1)):
                db.put(record)
        info = db.describe()
        assert os.path.exists(info["snapshot_path"])
        # The live set never exceeds 4 records, so the reset log stays small.
        assert info["records"] == 4
        assert info["log_entries"] < 8
        before = _canonical(db)
        db.close()
        recovered = TuningDatabase(path=path)
        assert _canonical(recovered) == before
        recovered.close()

    def test_no_compaction_without_dead_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TuningDatabase, "COMPACT_MIN_ENTRIES", 8)
        db = TuningDatabase(path=tmp_path / "db.log")
        for record in _records(50):  # all distinct: nothing is dead
            db.put(record)
        assert not os.path.exists(db.describe()["snapshot_path"])
        db.close()

    def test_explicit_snapshot_bounds_the_tail(self, tmp_path):
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        for record in _records(20):
            db.put(record)
        db.save()
        assert db.describe()["log_entries"] == 0
        db.put(_record(params=SMALL))
        db.close()
        # Recovery = snapshot fold (20) + tail replay (1).
        recovered = TuningDatabase(path=path)
        assert len(recovered) == 21
        recovered.close()

    def test_failed_auto_compaction_never_fails_a_written_put(self, tmp_path, monkeypatch):
        # Four slots, each put faster than the last: the 1024th line crosses
        # the compaction trigger.  Its line is written before the snapshot
        # runs, so the snapshot's failure must not fail the put.
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        base = _record()
        puts = [
            dataclasses.replace(
                base, params=LAYER.with_batch(i % 4 + 1), time_seconds=1.0 / (i + 1)
            )
            for i in range(1025)
        ]
        for record in puts[:1023]:
            db.put(record)
        _fail_next_fsync(monkeypatch)  # the snapshot's fsync
        assert db.put(puts[1023]) is puts[1023]
        monkeypatch.undo()
        info = db.describe()
        assert (info["snapshot_failures"], info["log_entries"]) == (1, 1024)
        assert db.lookup(puts[1023].params, V100, "direct") is puts[1023]
        reopened = TuningDatabase(path=path)
        assert _canonical(reopened) == _canonical(db)
        reopened.close()
        # The next effective put retries the compaction, and it lands.
        db.put(puts[1024])
        info = db.describe()
        assert (info["snapshot_failures"], info["log_entries"]) == (1, 0)
        # An explicit save still raises.
        _fail_next_fsync(monkeypatch)
        with pytest.raises(OSError):
            db.save()
        monkeypatch.undo()
        db.close()
        reopened = TuningDatabase(path=path)
        assert _canonical(reopened) == _canonical(db)
        reopened.close()

    def test_concurrent_appends_with_lockfree_lookups(self, tmp_path):
        db = TuningDatabase(path=tmp_path / "db.log")
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


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


class TestFileModes:
    """Every file the store and the journal write is installed by renaming a
    temp file over it.  A new file must get the mode ``open()`` gives it
    under the umask, and a replaced file must keep its permission bits."""

    def test_new_files_get_the_umask_default(self, tmp_path, umask_022):
        db = TuningDatabase(path=tmp_path / "db.log")  # installs the header
        db.put(_record())
        db.save()  # compaction: the snapshot, then a log reset
        export = db.save(tmp_path / "export.json")  # map export
        journal = RequestJournal(tmp_path / "journal.log")
        journal.accept("rid", {})
        journal.snapshot()
        for path in (db.path, db.path + ".snap", export, journal.path,
                     str(tmp_path / "journal.log.snap")):
            assert _mode(path) == 0o644, path
        db.close()
        journal.close()

    def test_replaced_files_keep_their_mode(self, tmp_path, umask_022):
        db = TuningDatabase(path=tmp_path / "db.log")
        db.put(_record())
        db.save()
        export = db.save(tmp_path / "export.json")
        for path, mode in ((db.path, 0o640), (db.path + ".snap", 0o604), (export, 0o660)):
            os.chmod(path, mode)
        db.put(_record(params=SMALL))
        db.save()
        db.save(export)
        assert (_mode(db.path), _mode(db.path + ".snap"), _mode(export)) == (0o640, 0o604, 0o660)
        db.close()
        # A map opened as the database is converted to a log in place.
        os.chmod(export, 0o640)
        converted = TuningDatabase(path=export)
        assert converted.describe()["store"] == "log"
        assert _mode(export) == 0o640
        converted.close()


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
        TuningDatabase(path=header_only).close()
        with pytest.raises(TuningDatabaseError, match=r"TuningDatabase\(path="):
            TuningDatabase.load(header_only)
        # A log with records is multi-line JSON: json.load fails first,
        # and the error already hints at the append-only log case.
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        db.put(_record())
        db.close()
        with pytest.raises(TuningDatabaseError, match="append-only"):
            TuningDatabase.load(path)

    def test_path_opens_logs_and_converts_maps(self, tmp_path):
        record = _record()
        map_path = tmp_path / "db.json"
        TuningDatabase([record]).save(map_path)
        opened = TuningDatabase(path=map_path)
        assert opened.describe()["store"] == "log"
        assert json.loads(map_path.read_text().splitlines()[0])["kind"] == "log"
        assert len(opened) == 1
        opened.close()

        log_path = tmp_path / "db.log"
        db = TuningDatabase(path=log_path)
        db.put(record)
        db.close()
        opened = TuningDatabase(path=log_path)
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
        db = TuningDatabase(path=tmp_path / "db.log")
        db.put(_record())
        db.lookup(LAYER, V100, "direct")
        db.lookup(SMALL, V100, "direct")
        info = db.describe()
        assert info["kind"] == "TuningDatabase"
        assert info["records"] == 1
        assert (info["hits"], info["misses"]) == (1, 1)
        assert info["store"] == "log"
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
        assert "store='memory'" in text

    def test_format_describe_non_dict_falls_back(self):
        assert format_describe(7) == "7"


class TestStoreMetrics:
    def test_db_store_metric_names(self, tmp_path):
        registry = MetricsRegistry()
        db = TuningDatabase(path=tmp_path / "db.log")
        db.attach_metrics(registry.scope("db"))
        slow, fast = _record(time_seconds=2e-3), _record(time_seconds=1e-3)
        db.put(slow)
        db.put(fast)
        db.put(slow)  # loses
        counters = registry.snapshot().counters
        gauges = registry.snapshot().gauges
        assert counters["db.puts_total"] == 3
        assert counters["db.puts_effective"] == 2
        assert counters["db.store.log_appends"] == 2
        assert gauges["db.store.live_records"] == 1
        assert gauges["db.store.log_entries"] == 2
        assert gauges["db.store.dead_entries"] == 1
        db.close()

    def test_compaction_and_recovery_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TuningDatabase, "COMPACT_MIN_ENTRIES", 4)
        registry = MetricsRegistry()
        db = TuningDatabase(path=tmp_path / "db.log")
        db.attach_metrics(registry.scope("db"))
        for round_index in range(8):
            db.put(_record(time_seconds=1e-3 / (round_index + 1)))
        counters = registry.snapshot().counters
        assert counters["db.store.compactions"] >= 1
        assert counters["db.store.compaction_records"] >= 1
        db.recover()
        counters = registry.snapshot().counters
        assert counters["db.store.recoveries"] == 1
        assert counters["db.store.recovered_records"] == 1
        db.close()


class TestBackendBitIdentity:
    """Acceptance: a log-backed database changes no tuning trajectory."""

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
        memory_service = TuningService(database=TuningDatabase())
        memory_results = memory_service.tune(self._workload())
        log_db = TuningDatabase(path=tmp_path / "svc.log")
        log_service = TuningService(database=log_db)
        log_results = log_service.tune(self._workload())
        assert self._trajectories(memory_results) == self._trajectories(log_results)
        assert memory_service.stats.measurements == log_service.stats.measurements
        assert _canonical(memory_service.database) == _canonical(log_service.database)
        log_db.close()

    def test_streaming_pool_trajectories_identical_across_backends(self, tmp_path):
        workload = self._workload() * 2
        results = {}
        databases = {}
        for kind, path in (("memory", None), ("log", tmp_path / "exchange.log")):
            pool = TuningWorkerPool(num_workers=2, use_processes=False)
            exchange = TuningDatabase(path=path)
            results[kind] = pool.tune(workload, database=exchange)
            databases[kind] = exchange
        assert self._trajectories(results["memory"]) == self._trajectories(
            results["log"]
        )
        assert _canonical(databases["memory"]) == _canonical(databases["log"])
        # Every record the shards streamed into the shared database is in
        # its log.
        databases["log"].close()
        reopened = TuningDatabase(path=tmp_path / "exchange.log")
        assert _canonical(reopened) == _canonical(databases["memory"])
        reopened.close()


class TestFacade:
    def test_put_and_lookup_identity_with_log_backend(self, tmp_path):
        db = TuningDatabase(path=tmp_path / "db.log")
        fast, slow = _record(time_seconds=1e-3), _record(time_seconds=2e-3)
        assert db.put(fast) is fast
        assert db.put(slow) is fast
        assert db.lookup(LAYER, V100, "direct") is fast
        db.close()

    def test_save_without_path_compacts_the_log(self, tmp_path):
        path = tmp_path / "db.log"
        db = TuningDatabase(path=path)
        db.put(_record())
        assert db.save() == str(path)
        assert os.path.exists(str(path) + ".snap")
        assert db.describe()["log_entries"] == 0
        db.close()

    def test_save_to_its_own_path_compacts_the_log(self, tmp_path):
        # A map exported over the live log would drop every later put when
        # the database is reopened.
        path = tmp_path / "db.json"
        db = TuningDatabase(path=path)
        db.put(_record())
        assert db.save(path) == str(path)
        db.put(_record(params=SMALL))
        db.close()
        assert len(TuningDatabase(path=path)) == 2

    def test_save_with_explicit_path_exports_portable_map(self, tmp_path):
        db = TuningDatabase(path=tmp_path / "db.log")
        db.put(_record())
        exported = db.save(tmp_path / "export.json")
        loaded = TuningDatabase.load(exported)
        assert _canonical(loaded) == _canonical(db)
        db.close()

    def test_engine_results_flow_through_store(self, tmp_path):
        from repro.core.autotune import AutoTuningEngine

        db = TuningDatabase(path=tmp_path / "db.log")
        result = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=8, seed=1, database=db
        ).tune()
        assert not result.from_cache
        db.close()
        # The tuned record survives the process: a fresh engine on a
        # recovered database is served from cache with zero measurements.
        recovered = TuningDatabase(path=tmp_path / "db.log")
        again = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=8, seed=1, database=recovered
        ).tune()
        assert again.from_cache
        recovered.close()
