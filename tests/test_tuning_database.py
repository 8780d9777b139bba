"""Tests for the persistent tuning database and its engine/runner wiring."""

import json
import os
import random
import threading

import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    AutoTuningEngine,
    Measurer,
    SearchSpace,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
    default_database_path,
)
from repro.gpusim import V100
from repro.nets import ConvLayer, ConvNet, ModelRunner

LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)


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


class TestDatabaseBasics:
    def test_put_and_lookup(self):
        db = TuningDatabase()
        record = _record()
        db.put(record)
        assert len(db) == 1
        assert db.lookup(LAYER, V100, "direct") is record
        assert db.lookup(LAYER, "V100", "direct") is record  # name or spec
        assert db.lookup(LAYER, V100, "winograd") is None
        assert (db.hits, db.misses) == (2, 1)

    def test_collision_keeps_faster_record(self):
        db = TuningDatabase()
        slow = _record(time_seconds=2e-3)
        fast = _record(time_seconds=1e-3)
        db.put(slow)
        assert db.put(fast) is fast
        assert db.put(slow) is fast  # slower record does not evict the faster
        assert len(db) == 1

    def test_distinct_params_are_distinct_keys(self):
        db = TuningDatabase([_record(), _record(params=LAYER.with_batch(4))])
        assert len(db) == 2

    def test_as_result_round_trip(self):
        record = _record(num_measurements=40, space_size=1000)
        result = record.as_result()
        assert result.from_cache
        assert result.best_config == record.config
        assert result.best_time == record.time_seconds
        assert result.space_size == 1000
        assert result.num_measurements == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        db = TuningDatabase()
        db.put(_record(tuner="ate", num_measurements=64, space_size=4096))
        db.put(_record(params=SMALL, algorithm="winograd", time_seconds=5e-4))
        path = tmp_path / "tuning.json"
        db.save(path)
        loaded = TuningDatabase.load(path)
        assert len(loaded) == len(db)
        for original in db.records():
            restored = loaded.lookup(original.params, original.gpu, original.algorithm)
            assert restored == original

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "records": []}')
        with pytest.raises(ValueError):
            TuningDatabase.load(path)

    def test_apply_folds_another_database(self):
        a = TuningDatabase([_record()])
        b = TuningDatabase([_record(params=SMALL)])
        a.apply(b)
        assert len(a) == 2

    def test_apply_keeps_better_config(self):
        # Worker databases tuned independently may disagree on the same
        # problem; the folded database must keep the faster configuration
        # regardless of fold direction.
        fast, slow = _record(time_seconds=1e-3), _record(time_seconds=2e-3)
        a, b = TuningDatabase([slow]), TuningDatabase([fast])
        a.apply(TuningDatabase([fast]))
        b.apply(TuningDatabase([slow]))
        for db in (a, b):
            assert len(db) == 1
            assert db.lookup(LAYER, V100, "direct").time_seconds == 1e-3

    def test_apply_accepts_record_iterables(self):
        db = TuningDatabase()
        db.apply([_record(), _record(params=SMALL)])
        db.apply(r for r in [_record(params=LAYER.with_batch(4))])
        assert len(db) == 3


class TestDefaultLocation:
    def test_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "nested" / "db.json"
        monkeypatch.setenv("REPRO_TUNING_DB", str(target))
        assert default_database_path() == str(target)
        db = TuningDatabase.default()
        assert db.path == str(target)
        db.put(_record())
        saved = db.save()  # bare save persists to the remembered location
        assert saved == str(target) and target.exists()
        reloaded = TuningDatabase.default()
        assert len(reloaded) == 1

    def test_default_cache_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNING_DB", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-cache-test")
        assert default_database_path() == "/tmp/xdg-cache-test/repro-tuning.json"

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",  # invalid syntax (a truncated save looks like this)
            '{"version": 1, "records": [{"par',  # literally truncated
            "[]",  # valid JSON, wrong shape
            '{"version": 1, "records": [42]}',  # malformed record
            '{"version": 1, "records": [{"gpu": "V100"}]}',  # missing fields
        ],
    )
    def test_corrupt_explicit_file_raises(self, tmp_path, monkeypatch, payload):
        # Regression: an unloadable $REPRO_TUNING_DB used to silently start
        # empty — discarding the user's records and overwriting the file on
        # the next save.  The user named this database; failing to open it
        # must be loud and name the path.
        target = tmp_path / "db.json"
        target.write_text(payload)
        monkeypatch.setenv("REPRO_TUNING_DB", str(target))
        with pytest.raises(TuningDatabaseError, match="REPRO_TUNING_DB"):
            TuningDatabase.default()
        assert target.read_text() == payload  # the file was not clobbered

    def test_explicit_directory_path_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_DB", str(tmp_path))  # a directory
        with pytest.raises(TuningDatabaseError):
            TuningDatabase.default()

    def test_explicit_unwritable_file_raises(self, tmp_path, monkeypatch):
        target = tmp_path / "db.json"
        TuningDatabase([_record()]).save(target)
        monkeypatch.setenv("REPRO_TUNING_DB", str(target))
        # os.access is authoritative-but-root-blind, so stub it: the suite
        # runs as root in CI containers, where chmod 0o444 still "works".
        real_access = os.access
        monkeypatch.setattr(
            os,
            "access",
            lambda p, mode: False if str(p) == str(target) else real_access(p, mode),
        )
        with pytest.raises(TuningDatabaseError, match="not writable"):
            TuningDatabase.default()

    def test_explicit_path_through_a_file_raises(self, tmp_path, monkeypatch):
        # $REPRO_TUNING_DB nests the database under something that is a
        # *file*: the log can never be created there, so default() must
        # refuse up front rather than tune into a database it cannot keep.
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("in the way")
        monkeypatch.setenv("REPRO_TUNING_DB", str(blocker / "nested" / "db.json"))
        with pytest.raises(TuningDatabaseError, match="REPRO_TUNING_DB"):
            TuningDatabase.default()
        assert blocker.read_text() == "in the way"
        assert os.listdir(tmp_path) == ["blocker.txt"]

    def test_explicit_unwritable_ancestor_raises(self, tmp_path, monkeypatch):
        target = tmp_path / "missing" / "deeper" / "db.json"
        monkeypatch.setenv("REPRO_TUNING_DB", str(target))
        # The suite runs as root in CI containers, where a chmod'ed
        # directory still accepts writes, so the refusal is injected.
        real_makedirs = os.makedirs

        def makedirs(name, *args, **kwargs):
            if str(name).startswith(str(tmp_path)):
                raise PermissionError(13, "Permission denied", str(name))
            return real_makedirs(name, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", makedirs)
        with pytest.raises(TuningDatabaseError, match="REPRO_TUNING_DB"):
            TuningDatabase.default()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "payload",
        ["{not json", '{"version": 1, "records": [42]}'],
    )
    def test_corrupt_implicit_cache_starts_empty(self, tmp_path, monkeypatch, payload):
        # The implicit cache-directory default stays lenient: nobody asked
        # for that file by name, so a corrupt cache entry must not brick
        # tuning — it starts empty and the next save rewrites it atomically.
        monkeypatch.delenv("REPRO_TUNING_DB", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        target = tmp_path / "repro-tuning.json"
        target.write_text(payload)
        db = TuningDatabase.default()
        assert len(db) == 0
        db.put(_record())
        db.save()
        assert len(TuningDatabase.default()) == 1  # rewritten atomically

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            TuningDatabase().save()


def _legacy_map(form, records):
    """A JSON map as earlier builds saved it at the database path: the
    format-1 export, or the older bare ``{"version": 1, ...}`` form."""
    payload = {"version": 1, "records": [r.to_dict() for r in records]}
    if form == "format-1":
        payload.update(format=1, kind="map")
    return json.dumps(payload, indent=1, sort_keys=True)


def _canonical(db):
    return sorted(
        (r.key(), r.conditions(), r.time_seconds, r.config.key(), r.budget)
        for r in db.records()
    )


@pytest.mark.parametrize("form", ["format-1", "version-1"])
class TestLegacyMapMigration:
    """A map at ``$REPRO_TUNING_DB`` (or the implicit cache path) becomes a
    record log in place, with no record lost to any crash on the way."""

    RECORDS = (
        _record(),
        _record(params=SMALL, algorithm="winograd", time_seconds=5e-4, budget=16),
    )

    def _setup(self, tmp_path, monkeypatch, form):
        target = tmp_path / "db.json"
        target.write_text(_legacy_map(form, self.RECORDS))
        monkeypatch.setenv("REPRO_TUNING_DB", str(target))
        return target

    def test_default_converts_the_map_to_a_log(self, tmp_path, monkeypatch, form):
        target = self._setup(tmp_path, monkeypatch, form)
        db = TuningDatabase.default()
        assert db.describe()["store"] == "log"
        assert json.loads(target.read_text().splitlines()[0])["kind"] == "log"
        for record in self.RECORDS:
            assert db.lookup(record.params, record.gpu, record.algorithm) == record
        added = _record(params=LAYER.with_batch(4))
        db.put(added)  # appended to the log, no save needed
        db.close()
        reopened = TuningDatabase.default()
        assert _canonical(reopened) == _canonical(TuningDatabase([*self.RECORDS, added]))
        reopened.close()

    def test_fault_before_the_replace_leaves_the_map(self, tmp_path, monkeypatch, form):
        target = self._setup(tmp_path, monkeypatch, form)
        before = target.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(
                os, "replace", lambda *a: (_ for _ in ()).throw(OSError("power cut"))
            )
            with pytest.raises(TuningDatabaseError, match="REPRO_TUNING_DB"):
                TuningDatabase.default()
        assert target.read_bytes() == before
        assert os.listdir(tmp_path) == ["db.json"]  # no temp file left behind
        db = TuningDatabase.default()  # the next open converts it
        assert _canonical(db) == _canonical(TuningDatabase(self.RECORDS))
        db.close()

    def test_fault_after_the_replace_leaves_a_whole_log(self, tmp_path, monkeypatch, form):
        from repro.core.autotune import store as store_module

        target = self._setup(tmp_path, monkeypatch, form)
        with monkeypatch.context() as patch:
            patch.setattr(
                store_module.AppendLog,
                "recover",
                lambda *a, **k: (_ for _ in ()).throw(OSError("killed")),
            )
            with pytest.raises(TuningDatabaseError, match="REPRO_TUNING_DB"):
                TuningDatabase.default()
        assert json.loads(target.read_text().splitlines()[0])["kind"] == "log"
        db = TuningDatabase.default()
        assert _canonical(db) == _canonical(TuningDatabase(self.RECORDS))
        db.close()

    def test_load_inverts_the_export(self, tmp_path, monkeypatch, form):
        self._setup(tmp_path, monkeypatch, form)
        db = TuningDatabase.default()
        exported = db.save(tmp_path / "export.json")
        loaded = TuningDatabase.load(exported)
        assert loaded.path is None  # an import remembers no path
        assert _canonical(loaded) == _canonical(db)
        for record in self.RECORDS:
            assert loaded.lookup(record.params, record.gpu, record.algorithm) == record
        db.close()


class TestAtomicSave:
    def test_crash_during_write_preserves_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "db.json"
        TuningDatabase([_record()]).save(path)
        before = path.read_text()

        # Simulated crash: the dump dies halfway through writing the payload.
        def exploding_dump(payload, fh, **kwargs):
            fh.write('{"version": 1, "records": [truncat')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", exploding_dump)
        with pytest.raises(OSError):
            TuningDatabase([_record(), _record(params=SMALL)]).save(path)
        # The original file is untouched and no temp litter remains.
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["db.json"]
        assert len(TuningDatabase.load(path)) == 1

    def test_crash_during_replace_preserves_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "db.json"
        TuningDatabase([_record()]).save(path)
        before = path.read_text()
        monkeypatch.setattr(
            os, "replace", lambda *a: (_ for _ in ()).throw(OSError("power cut"))
        )
        with pytest.raises(OSError):
            TuningDatabase([_record(params=SMALL)]).save(path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["db.json"]

    def test_save_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "db.json"
        TuningDatabase([_record()]).save(path)
        assert len(TuningDatabase.load(path)) == 1


class TestConcurrency:
    def test_concurrent_puts_and_lookups(self):
        db = TuningDatabase()
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


class TestEngineWiring:
    def test_second_tune_served_from_database(self):
        db = TuningDatabase()
        measurer = Measurer(SMALL, V100)
        engine = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=24, seed=1,
            measurer=measurer, database=db,
        )
        first = engine.tune()
        assert not first.from_cache
        assert len(db) == 1
        spent = measurer.num_measurements

        again = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=24, seed=99,
            measurer=measurer, database=db,
        ).tune()
        assert again.from_cache
        assert again.best_time == first.best_time
        assert again.best_config == first.best_config
        assert measurer.num_measurements == spent  # zero new measurements

    def test_tune_without_database_unchanged(self):
        result = AutoTuningEngine(SMALL, V100, "direct", max_measurements=16, seed=1).tune()
        assert not result.from_cache

    def test_unpruned_engine_bypasses_database(self):
        # A TVM-style (unpruned) run must neither consume nor pollute the
        # database of pruned ATE records.
        db = TuningDatabase()
        AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=16, seed=1, database=db
        ).tune()
        assert len(db) == 1
        unpruned = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=16, seed=1,
            pruned=False, database=db,
        ).tune()
        assert not unpruned.from_cache
        assert len(db) == 1  # nothing stored for the unpruned space

    def test_low_budget_record_does_not_serve_bigger_request(self):
        db = TuningDatabase()
        measurer = Measurer(SMALL, V100)
        AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=8, seed=1,
            measurer=measurer, database=db,
        ).tune()
        thorough = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=32, seed=1,
            measurer=measurer, database=db,
        ).tune()
        assert not thorough.from_cache  # the 8-budget record did not pin it
        record = db.lookup(SMALL, V100, "direct")
        assert record.budget == 32  # upgraded by the thorough run
        # A smaller request is now happily served from the cache.
        small = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=8, seed=5,
            measurer=measurer, database=db,
        ).tune()
        assert small.from_cache

    def test_put_collision_inherits_larger_budget(self):
        db = TuningDatabase()
        db.put(_record(time_seconds=2e-3, budget=96))
        kept = db.put(_record(time_seconds=1e-3, budget=8))
        assert kept.time_seconds == 1e-3
        assert kept.budget == 96  # the faster config also covers the 96-budget

    def test_mismatched_measurement_conditions_are_misses(self):
        db = TuningDatabase()
        noisy = Measurer(SMALL, V100)  # default noise=0.05, seed=2021
        AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=16, seed=1,
            measurer=noisy, database=db,
        ).tune()
        # A noiseless measurer must not be served times measured with noise.
        clean = Measurer(SMALL, V100, noise=0.0)
        result = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=16, seed=1,
            measurer=clean, database=db,
        ).tune()
        assert not result.from_cache
        # Both condition sets coexist under the problem key — alternating
        # runners keep hitting their own records instead of evicting each
        # other (no retune ping-pong).
        assert len(db) == 2
        assert db.lookup(SMALL, V100, "direct", noise=0.05, noise_seed=2021).noise == 0.05
        assert db.lookup(SMALL, V100, "direct", noise=0.0, noise_seed=2021).noise == 0.0
        again = AutoTuningEngine(
            SMALL, V100, "direct", max_measurements=16, seed=7,
            measurer=noisy, database=db,
        ).tune()
        assert again.from_cache

    def test_unknown_condition_records_serve_any_caller(self):
        db = TuningDatabase([_record(time_seconds=1e-3)])  # noise=None: unknown
        assert db.lookup(LAYER, V100, "direct", noise=0.0, noise_seed=5) is not None


class TestRunnerReuse:
    def test_repeated_layers_tune_once(self):
        # Two identically-shaped layers under different names plus one distinct
        # layer: the database must collapse the duplicates to one tuning run.
        net = ConvNet(
            name="toy",
            layers=(
                ConvLayer("a", 16, 8, 32, kernel=3, padding=1),
                ConvLayer("b", 16, 8, 32, kernel=3, padding=1, repeat=3),
                ConvLayer("c", 16, 8, 16, kernel=3, padding=1),
            ),
        )
        runner = ModelRunner(V100, mode="tuned", max_measurements=16)
        timing = runner.time_model(net)
        # Layers a and b share (ConvParams, algorithm): a tunes, b hits.
        distinct = 2  # distinct ConvParams among a/b/c
        algorithms_per_layer = 2  # direct + winograd candidates (3x3, Cin>=16)
        assert len(runner.database) == distinct * algorithms_per_layer
        assert runner.database.hits > 0
        assert timing.layers[0].ours_seconds == timing.layers[1].ours_seconds

    def test_database_shared_across_models(self):
        net = ConvNet(name="m1", layers=(ConvLayer("a", 16, 8, 32, kernel=3, padding=1),))
        db = TuningDatabase()
        ModelRunner(V100, mode="tuned", max_measurements=16, database=db).time_model(net)
        stored = len(db)
        assert stored > 0
        hits_before = db.hits
        ModelRunner(V100, mode="tuned", max_measurements=16, database=db).time_model(net)
        assert len(db) == stored  # nothing re-tuned
        assert db.hits > hits_before

    def test_analytic_mode_matches_scalar_layer_path(self):
        net = ConvNet(
            name="toy",
            layers=(
                ConvLayer("a", 16, 8, 32, kernel=3, padding=1),
                ConvLayer("b", 3, 16, 8, kernel=5, stride=2),
            ),
        )
        runner = ModelRunner(V100, mode="analytic")
        timing = runner.time_model(net)
        for layer, got in zip(net.layers, timing.layers):
            want = runner.time_layer(layer)
            assert got.ours_seconds == want.ours_seconds
            assert got.algorithm == want.algorithm
            assert got.cudnn_seconds == want.cudnn_seconds
