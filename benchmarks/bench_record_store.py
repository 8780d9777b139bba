"""The record store — durable serving at the 1M-record daemon scale.

The tuning daemon keeps one long-lived database: every tuning run appends
its best record, lookups are served from memory, and restarts must recover
exactly what was stored.  This benchmark drives a
:class:`~repro.core.autotune.database.TuningDatabase` on a record log
through that lifecycle at scale:

* ``append`` — 1M effective puts into the database (50 improvement
  rounds over 20k problems, every put changes the winner).  Dead-ratio
  compaction must keep this O(1) amortised: the second half of the workload
  may not be materially slower than the first, and the log may not grow
  with history.
* ``recovery`` — reopen the database (snapshot fold + log-tail replay) and
  require the recovered record set to be *exactly* the pre-close effective
  set, including after a torn trailing append (the mid-append crash
  signature).
* ``durable put`` — per-put durability: the log's append+flush vs one
  whole-file JSON map rewrite (:func:`write_map_file`) per put, which is
  what a map file needs for the same guarantee.
* ``serve`` — lock-free lookup latency must not depend on whether the
  database has a log: a database without a path against the recovered
  log-backed one.

Correctness gates (recovered-set equality, bounded log, identical serving
with and without a log) always fail hard; wall-clock floors soften to
warnings under ``BENCH_SPEEDUP_SOFT=1``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import warnings

import pytest

from conftest import emit, write_bench_json, write_obs_json
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.core.autotune import SearchSpace, TuningDatabase
from repro.core.autotune.store import TuningRecord, write_map_file
from repro.obs import MetricsRegistry, MonotonicClock

LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
LIVE_KEYS = 20_000
ROUNDS = 50
TOTAL_APPENDS = LIVE_KEYS * ROUNDS  # 1M effective puts
DURABLE_PUTS = 500
SERVE_LOOKUPS = 200_000

#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def _base_records(spec):
    """One record per live problem key (distinct batch sizes)."""
    space = SearchSpace(LAYER, spec, "direct", pruned=True)
    config = space.random_configuration(random.Random(0))
    return [
        TuningRecord(
            params=dataclasses.replace(LAYER, batch=i + 1),
            gpu=spec.name,
            algorithm="direct",
            config=config,
            time_seconds=1.0,
            gflops=1.0,
        )
        for i in range(LIVE_KEYS)
    ]


def _canonical(db):
    return sorted(
        (r.key(), r.conditions(), r.time_seconds, r.budget) for r in db.records()
    )


def _soft_floor(name, value, floor):
    if value >= floor:
        return
    message = f"{name} is {value:.3g}, below the {floor} floor"
    if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
        warnings.warn(message, stacklevel=2)
    else:
        pytest.fail(message)


def run_record_store_benchmark(spec, tmp_path):
    registry = MetricsRegistry()
    base = _base_records(spec)
    log_path = os.path.join(tmp_path, "bench.log")
    store = TuningDatabase(path=log_path)
    store.attach_metrics(registry.scope("db"))

    # -- append: 1M effective puts, every round improves every key ------- #
    half_times = [0.0, 0.0]
    for round_index in range(ROUNDS):
        batch = [
            dataclasses.replace(record, time_seconds=1.0 / (round_index + 1))
            for record in base
        ]
        start = _CLOCK.now()
        for record in batch:
            store.put(record)
        half_times[round_index * 2 // ROUNDS] += _CLOCK.now() - start
    t_append = sum(half_times)
    append_per_second = TOTAL_APPENDS / t_append
    append_amortized_ratio = half_times[0] / half_times[1]

    counters = registry.snapshot().counters
    info = store.describe()
    # Hard gates: compaction actually ran and kept the log O(live), not
    # O(history) — 1M appends may not leave 1M log entries behind.
    assert len(store) == LIVE_KEYS
    assert counters["db.puts_effective"] == TOTAL_APPENDS
    assert counters["db.store.compactions"] >= 1, "dead-ratio compaction never ran"
    assert info["log_entries"] <= 3 * LIVE_KEYS, (
        f"log holds {info['log_entries']} entries for {LIVE_KEYS} live records; "
        f"compaction is not bounding the tail"
    )

    # -- recovery: reopen and demand the exact effective set ------------- #
    expected = _canonical(store)
    revision = store.revision
    store.close()
    start = _CLOCK.now()
    recovered = TuningDatabase(path=log_path)
    t_recover = _CLOCK.now() - start
    recovery_per_second = LIVE_KEYS / t_recover
    assert _canonical(recovered) == expected, "recovered set != pre-close set"
    assert recovered.revision == revision

    # Torn trailing append (mid-append crash): the in-flight put is lost,
    # everything else recovers exactly.
    recovered.close()
    with open(log_path, "ab") as fh:
        fh.write(b'{"rev": 0, "record": {"par')
    after_crash = TuningDatabase(path=log_path)
    assert _canonical(after_crash) == expected, "torn tail corrupted recovery"

    # -- serve: lock-free lookups must not depend on the log -------------- #
    memory_store = TuningDatabase(after_crash.records())
    probes = [
        (record.params, record.gpu, record.algorithm)
        for record in base[:: LIVE_KEYS // 1000 or 1]
    ]
    timings = {}
    for name, store_under_test in (("memory", memory_store), ("log", after_crash)):
        start = _CLOCK.now()
        for i in range(SERVE_LOOKUPS):
            store_under_test.lookup(*probes[i % len(probes)])
        timings[name] = _CLOCK.now() - start
    serve_memory_vs_log = timings["memory"] / timings["log"]
    sample = random.Random(1).sample(base, 32)
    for record in sample:  # hard gate: identical answers with and without a log
        probe = (record.params, record.gpu, record.algorithm)
        assert memory_store.lookup(*probe) == after_crash.lookup(*probe)
    after_crash.close()

    # -- durable puts: append+flush vs whole-file rewrite ---------------- #
    durable = base[:DURABLE_PUTS]
    log2 = TuningDatabase(path=os.path.join(tmp_path, "durable.log"))
    start = _CLOCK.now()
    for record in durable:
        log2.put(record)
    t_log_durable = _CLOCK.now() - start
    log2.close()
    map_path = os.path.join(tmp_path, "durable.json")
    map_records = TuningDatabase()
    start = _CLOCK.now()
    for record in durable:
        map_records.put(record)
        # A map file's only durability story: rewrite all of it.
        write_map_file(map_path, map_records.records())
    t_map_durable = _CLOCK.now() - start
    durable_put_speedup = t_map_durable / t_log_durable

    table = ResultTable(
        f"Record store ({spec.name}, {TOTAL_APPENDS:,} appends over "
        f"{LIVE_KEYS:,} live keys)",
        columns=["phase", "seconds", "per_second"],
    )
    table.add_row(phase="log append (1M)", seconds=t_append, per_second=append_per_second)
    table.add_row(
        phase="log recovery", seconds=t_recover, per_second=recovery_per_second
    )
    table.add_row(
        phase=f"durable puts x{DURABLE_PUTS} (log)",
        seconds=t_log_durable,
        per_second=DURABLE_PUTS / t_log_durable,
    )
    table.add_row(
        phase=f"durable puts x{DURABLE_PUTS} (map)",
        seconds=t_map_durable,
        per_second=DURABLE_PUTS / t_map_durable,
    )
    return (
        table,
        {
            "live_keys": LIVE_KEYS,
            "total_appends": TOTAL_APPENDS,
            "append_seconds": t_append,
            "append_per_second": append_per_second,
            "append_amortized_ratio": append_amortized_ratio,
            "compactions": counters["db.store.compactions"],
            "log_entries_after": info["log_entries"],
            "recovery_seconds": t_recover,
            "recovery_per_second": recovery_per_second,
            "durable_put_speedup": durable_put_speedup,
            "serve_lookups": SERVE_LOOKUPS,
            "serve_memory_seconds": timings["memory"],
            "serve_log_seconds": timings["log"],
            "serve_memory_vs_log": serve_memory_vs_log,
        },
        registry.snapshot(),
    )


@pytest.mark.benchmark(group="record_store")
def test_record_store_scale(benchmark, gpu_v100, tmp_path):
    table, stats, snapshot = benchmark.pedantic(
        run_record_store_benchmark, args=(gpu_v100, tmp_path), rounds=1, iterations=1
    )
    emit(render_table(table, precision=2))
    emit(
        f"append: {stats['append_per_second']:,.0f}/s "
        f"(amortized ratio {stats['append_amortized_ratio']:.2f}, "
        f"{stats['compactions']} compactions), "
        f"recovery: {stats['recovery_per_second']:,.0f} records/s, "
        f"durable put speedup: {stats['durable_put_speedup']:.0f}x, "
        f"serve memory/log: {stats['serve_memory_vs_log']:.2f}"
    )
    write_bench_json("record_store", gpu=gpu_v100.name, **stats)
    write_obs_json(
        "record_store",
        snapshot,
        live_keys=LIVE_KEYS,
        total_appends=TOTAL_APPENDS,
    )
    # Wall-clock floors (soft under BENCH_SPEEDUP_SOFT=1); the recovered-set
    # equality, log-bound and identical-serving asserts above always gate.
    _soft_floor("append_per_second", stats["append_per_second"], 10_000)
    _soft_floor(
        "append_amortized_ratio", stats["append_amortized_ratio"], 0.5
    )
    _soft_floor("recovery_per_second", stats["recovery_per_second"], 2_000)
    _soft_floor("durable_put_speedup", stats["durable_put_speedup"], 10.0)
    _soft_floor("serve_memory_vs_log", stats["serve_memory_vs_log"], 0.6)
