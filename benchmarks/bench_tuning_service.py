"""Tuning-service throughput — coalescing + packing vs sequential tuning.

A production tuning tier serves many concurrent requests whose layers repeat
heavily (model zoos share ResNet-style shapes).  Two workloads, each
answered two ways and gated on bit-identity plus a wall-clock floor:

* **homogeneous** — a mixed 16-request ATE workload (5 distinct
  (layer, algorithm) problems, realistic duplication);
* **mixed-algorithm** — 16 requests spread over six distinct
  (problem, tuner) combinations covering *every* search algorithm in the
  repository (ATE, TVM-style, random, simulated annealing, parallel
  tempering, genetic), the way concurrent clients running different tuners
  would hit one service.  Heterogeneous sessions share scheduling rounds, so
  e.g. the sequential SA chain's one-configuration proposals ride inside the
  other sessions' packed executor batches.

A third workload gates the **streaming worker pool**: a duplicate-heavy
multi-shard workload (each problem requested under several seeds, rotated so
the variants land in different shards) answered once by isolated per-shard
services over the pool's own placement and once by the streaming pool;
cross-shard record exchange must cut the total measurement count strictly
(and deterministically — both legs run in-process).

The ``sequential per-request`` leg is the pre-service flow — one direct
``tune()`` per request (:meth:`TuningRequest.tune_direct`), no shared state,
so duplicated requests re-tune from scratch.  The service must be at least
3x faster on each workload while returning bit-identical results for every
request.  Both tests write machine-readable ``BENCH_*.json`` telemetry for
CI's perf-trajectory artifacts.
"""

from __future__ import annotations

import os
import sys
import warnings

import pytest

from conftest import emit, write_bench_json, write_obs_json
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.obs import MonotonicClock, Observability
from repro.service import (
    TuningRequest,
    TuningService,
    TuningWorkerPool,
)

# The no-exchange pool reference lives with the tests, not in src/.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)
from tests.pool_reference import isolated_shards  # noqa: E402

BUDGET = 48
#: best-of rounds per leg — three because container CPU quotas can throttle
#: a single round of either leg and flip a 3x+ ratio under the floor.
ROUNDS = 3

#: 5 distinct problems, duplicated into a mixed 16-request workload the way
#: concurrent clients tuning overlapping models would submit them.
_DISTINCT = [
    (ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1), "direct"),
    (ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1), "direct"),
    (ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1), "direct"),
    (ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1), "winograd"),
    (ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1), "direct"),
]
_MIX = [0, 1, 0, 2, 3, 1, 0, 4, 1, 3, 2, 0, 1, 3, 4, 2]  # 16 requests

#: 6 distinct (problem, algorithm, tuner) combinations — one per search
#: algorithm in the repository — duplicated into a 16-request workload.
_DISTINCT_TUNERS = [
    (ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1), "direct", "ate", True),
    (ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1), "direct", "random", False),
    (ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1), "direct", "sa_tempering", False),
    (ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1), "direct", "genetic", False),
    (ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1), "direct", "simulated_annealing", False),
    (ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1), "winograd", "tvm_style", False),
]
_MIX_TUNERS = [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 0, 1, 5, 5, 0]  # 16 requests

#: 4 problems for the multi-shard worker-pool workload; small enough that
#: the isolated-shards reference leg stays cheap.
_POOL_PROBLEMS = [
    ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1),
    ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1),
    ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1),
    ConvParams.square(11, 24, 40, kernel=3, stride=1, padding=1),
]
_POOL_SEED_ROWS = 3  # each problem requested under 3 different seeds


def _requests(spec):
    return [
        TuningRequest(
            _DISTINCT[i][0],
            spec,
            algorithm=_DISTINCT[i][1],
            max_measurements=BUDGET,
            seed=1,
        )
        for i in _MIX
    ]


def _mixed_tuner_requests(spec):
    return [
        TuningRequest(
            _DISTINCT_TUNERS[i][0],
            spec,
            algorithm=_DISTINCT_TUNERS[i][1],
            max_measurements=BUDGET,
            seed=1,
            tuner=_DISTINCT_TUNERS[i][2],
            pruned=_DISTINCT_TUNERS[i][3],
        )
        for i in _MIX_TUNERS
    ]


#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def _best_of(fn, rounds=ROUNDS):
    best_time, result = float("inf"), None
    for _ in range(rounds):
        start = _CLOCK.now()
        result = fn()
        best_time = min(best_time, _CLOCK.now() - start)
    return best_time, result


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


def _run_workload(requests):
    """Time the sequential-per-request and service legs of one workload."""

    def sequential():
        return [request.tune_direct() for request in requests]

    last_service = {}

    def service():
        svc = TuningService()
        last_service["svc"] = svc  # deterministic: every round has equal stats
        return svc.tune(requests)

    t_sequential, sequential_results = _best_of(sequential)
    t_service, service_results = _best_of(service)
    stats = last_service["svc"].stats

    # Exactness: every request's best configuration is bit-identical, and
    # every freshly tuned (non-database-served) result reproduces the direct
    # run's full trajectory.
    for request, got, want in zip(requests, service_results, sequential_results):
        assert got.best_config == want.best_config, "service best config diverges"
        assert got.best_time == want.best_time, "service best time diverges"
        if not got.from_cache:
            assert _trajectory(got) == _trajectory(want), (
                f"service trajectory diverges for {request.describe()}"
            )
    return t_sequential, t_service, stats


def _speedup_table(title, requests, t_sequential, t_service):
    table = ResultTable(
        title, columns=["pipeline", "ms", "ms_per_request", "speedup"]
    )
    for name, t in (
        ("sequential per-request", t_sequential),
        ("tuning service", t_service),
    ):
        table.add_row(
            pipeline=name,
            ms=t * 1e3,
            ms_per_request=t * 1e3 / len(requests),
            speedup=t_sequential / t,
        )
    return table


def _gate_speedup(speedup, floor=3.0):
    # The coalescing accounting always gates (it is deterministic); the
    # wall-clock ratio gates by default but BENCH_SPEEDUP_SOFT=1 downgrades a
    # shortfall to a warning for shared CI runners, mirroring
    # bench_batched_measurement.py.
    if speedup < floor:
        message = f"service speedup is {speedup:.1f}x, below the {floor}x floor"
        if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
            warnings.warn(message, stacklevel=2)
        else:
            pytest.fail(message)


def run_tuning_service_throughput(spec):
    requests = _requests(spec)
    t_sequential, t_service, stats = _run_workload(requests)
    table = _speedup_table(
        f"Tuning service throughput ({spec.name}, {len(requests)} requests, "
        f"{len(_DISTINCT)} distinct, budget {BUDGET})",
        requests,
        t_sequential,
        t_service,
    )
    return table, t_sequential, t_service, stats


def run_mixed_algorithm_throughput(spec):
    requests = _mixed_tuner_requests(spec)
    t_sequential, t_service, stats = _run_workload(requests)
    table = _speedup_table(
        f"Mixed-algorithm tuning service ({spec.name}, {len(requests)} requests, "
        f"{len(_DISTINCT_TUNERS)} distinct tuner sessions, budget {BUDGET})",
        requests,
        t_sequential,
        t_service,
    )
    return table, t_sequential, t_service, stats


@pytest.mark.benchmark(group="tuning-service")
def test_tuning_service_throughput(benchmark, gpu_v100):
    table, t_sequential, t_service, stats = benchmark.pedantic(
        run_tuning_service_throughput, args=(gpu_v100,), rounds=1, iterations=1
    )
    speedup = t_sequential / t_service
    emit(render_table(table, precision=2))
    emit(
        f"service speedup: {speedup:.1f}x over sequential per-request tuning; "
        f"{stats.describe()}"
    )
    write_bench_json(
        "tuning_service",
        gpu=gpu_v100.name,
        requests=len(_MIX),
        distinct=len(_DISTINCT),
        budget=BUDGET,
        sequential_seconds=t_sequential,
        service_seconds=t_service,
        speedup=speedup,
        measurements=stats.measurements,
        executor_calls=stats.executor_calls,
        packed_configs=stats.packed_configs,
        coalesced=stats.coalesced,
        rounds=stats.rounds,
    )
    assert stats.tuning_runs == len(_DISTINCT), "duplicates did not coalesce"
    assert stats.coalesced == len(_MIX) - len(_DISTINCT)
    _gate_speedup(speedup)


def _pool_requests(spec):
    """Duplicate-heavy multi-shard workload: 4 problems x 3 seeds + repeats.

    Seed rows rotate the problems so the seed variants of each problem land
    in *different* shards (round-robin placement over distinct requests) —
    shard B's backlog holds variants of problems shard A is tuning.  A final
    wave repeats the first row's requests verbatim (identical requests:
    same-shard coalescing / database serving).
    """
    requests = []
    for row in range(_POOL_SEED_ROWS):
        for slot in range(len(_POOL_PROBLEMS)):
            problem = _POOL_PROBLEMS[(slot + row) % len(_POOL_PROBLEMS)]
            requests.append(
                TuningRequest(
                    problem, spec, algorithm="direct",
                    max_measurements=BUDGET, seed=row + 1,
                )
            )
    return requests + requests[: len(_POOL_PROBLEMS)]


def run_streaming_pool_savings(spec):
    """Time + account the streamed pool against isolated shards.

    Both legs run in-process and deterministically (the pool with
    ``use_processes=False``), so the measurement counts are exact,
    reproducible numbers — the hard gate below is an equality-grade
    comparison, not a bound.
    """
    requests = _pool_requests(spec)

    stream_pool = TuningWorkerPool(
        num_workers=len(_POOL_PROBLEMS), admit_window=1, use_processes=False,
    )
    t_isolated, (_, isolated_stats) = _best_of(
        lambda: isolated_shards(stream_pool, requests)
    )
    t_stream, stream_results = _best_of(lambda: stream_pool.tune(list(requests)))

    # Exactness.  Freshly tuned results reproduce their direct run
    # bit-for-bit; served results carry the keep-better record of the
    # problem's fresh runs — the same record a sequential client of the
    # shared database would have been handed (PR 2 serving semantics).
    best_fresh: dict = {}
    for request, result in zip(requests, stream_results):
        if not result.from_cache:
            assert _trajectory(result) == _trajectory(request.tune_direct()), (
                f"streamed pool trajectory diverges for {request.describe()}"
            )
            key = (request.params, request.algorithm)
            best_fresh[key] = min(
                best_fresh.get(key, float("inf")), result.best_time
            )
    for request, result in zip(requests, stream_results):
        if result.from_cache:
            key = (request.params, request.algorithm)
            assert result.best_time == best_fresh[key], (
                f"served result is not the best known record for "
                f"{request.describe()}"
            )
    return t_isolated, t_stream, isolated_stats, stream_pool.stats


@pytest.mark.benchmark(group="tuning-service")
def test_streaming_pool_cuts_measurements(benchmark, gpu_v100):
    t_isolated, t_stream, isolated_stats, stream_stats = benchmark.pedantic(
        run_streaming_pool_savings, args=(gpu_v100,), rounds=1, iterations=1
    )
    saving = isolated_stats.measurements / stream_stats.measurements
    speedup = t_isolated / t_stream
    requests = _pool_requests(gpu_v100)
    table = ResultTable(
        f"Streaming worker pool ({gpu_v100.name}, {len(requests)} requests, "
        f"{len(_POOL_PROBLEMS)} problems x {_POOL_SEED_ROWS} seeds, "
        f"budget {BUDGET})",
        columns=["pool", "ms", "measurements", "tuning_runs"],
    )
    table.add_row(
        pool="isolated shards", ms=t_isolated * 1e3,
        measurements=isolated_stats.measurements, tuning_runs=isolated_stats.tuning_runs,
    )
    table.add_row(
        pool="streaming", ms=t_stream * 1e3,
        measurements=stream_stats.measurements, tuning_runs=stream_stats.tuning_runs,
    )
    emit(render_table(table, precision=2))
    emit(
        f"cross-shard streaming: {saving:.2f}x fewer measurements "
        f"({stream_stats.measurements} vs {isolated_stats.measurements}), "
        f"{speedup:.1f}x wall-clock; {stream_stats.describe()}"
    )
    write_bench_json(
        "tuning_pool",
        gpu=gpu_v100.name,
        requests=len(requests),
        problems=len(_POOL_PROBLEMS),
        seed_rows=_POOL_SEED_ROWS,
        budget=BUDGET,
        merge_seconds=t_isolated,
        streaming_seconds=t_stream,
        merge_measurements=isolated_stats.measurements,
        streaming_measurements=stream_stats.measurements,
        measurement_saving=saving,
        speedup=speedup,
        records_streamed=stream_stats.records_streamed,
        records_applied=stream_stats.records_applied,
        tuning_runs=stream_stats.tuning_runs,
        database_hits=stream_stats.database_hits,
    )
    # The tentpole gate: streamed cross-shard serving performs *strictly
    # fewer* total measurements than isolated shards — deterministically
    # (the serial interleaving has no timing dependence).  One fresh run per
    # problem; every seed variant and repeat is served or coalesced.
    assert stream_stats.measurements < isolated_stats.measurements
    assert stream_stats.tuning_runs == len(_POOL_PROBLEMS)
    assert isolated_stats.tuning_runs == len(_POOL_PROBLEMS) * _POOL_SEED_ROWS
    assert stream_stats.records_streamed >= len(_POOL_PROBLEMS)
    assert stream_stats.poisoned_envelopes == 0
    _gate_speedup(speedup, floor=2.0)


def run_observability_overhead(spec):
    """Time the service leg with observability off and fully on.

    The enabled leg runs with a real monotonic clock, a live registry and
    the span tracer — the most expensive configuration the observability
    layer has.  Results must stay bit-identical (write-only telemetry) and
    the enabled leg must finish within 5% of the disabled one.
    """
    requests = _requests(spec)

    def disabled():
        return TuningService().tune(list(requests))

    last = {}

    def enabled():
        obs = Observability(clock=MonotonicClock())
        service = TuningService(obs=obs)
        results = service.tune(list(requests))
        last["service"] = service  # deterministic per round
        return results

    t_disabled, disabled_results = _best_of(disabled)
    t_enabled, enabled_results = _best_of(enabled)
    for want, got in zip(disabled_results, enabled_results):
        assert _trajectory(got) == _trajectory(want), (
            "observability perturbed a tuning trajectory"
        )
    snapshot = last["service"].fleet_snapshot()
    return t_disabled, t_enabled, snapshot


@pytest.mark.benchmark(group="tuning-service")
def test_observability_overhead(benchmark, gpu_v100):
    t_disabled, t_enabled, snapshot = benchmark.pedantic(
        run_observability_overhead, args=(gpu_v100,), rounds=1, iterations=1
    )
    # >= 1.0 means enabled was not slower at all; the gate allows 5%.
    overhead_ratio = t_disabled / t_enabled
    emit(
        f"observability overhead: disabled {t_disabled * 1e3:.1f}ms vs "
        f"enabled {t_enabled * 1e3:.1f}ms ({overhead_ratio:.3f}x ratio, "
        f"floor 0.95)"
    )
    fill = snapshot.histograms.get("service.pack.fill_ratio")
    assert fill is not None and fill.total > 0, (
        "enabled run recorded no packing fill-ratio observations"
    )
    assert snapshot.counters.get("service.requests") == len(_MIX)
    write_obs_json(
        "tuning_service",
        snapshot,
        gpu=gpu_v100.name,
        requests=len(_MIX),
        budget=BUDGET,
        disabled_seconds=t_disabled,
        enabled_seconds=t_enabled,
        overhead_ratio=overhead_ratio,
    )
    write_bench_json(
        "obs_overhead",
        gpu=gpu_v100.name,
        requests=len(_MIX),
        budget=BUDGET,
        disabled_seconds=t_disabled,
        enabled_seconds=t_enabled,
        overhead_ratio=overhead_ratio,
    )
    _gate_speedup(overhead_ratio, floor=0.95)


@pytest.mark.benchmark(group="tuning-service")
def test_mixed_algorithm_service_throughput(benchmark, gpu_v100):
    table, t_sequential, t_service, stats = benchmark.pedantic(
        run_mixed_algorithm_throughput, args=(gpu_v100,), rounds=1, iterations=1
    )
    speedup = t_sequential / t_service
    emit(render_table(table, precision=2))
    emit(
        f"mixed-algorithm speedup: {speedup:.1f}x over sequential per-request "
        f"tuning; {stats.describe()}"
    )
    write_bench_json(
        "tuning_service_mixed",
        gpu=gpu_v100.name,
        requests=len(_MIX_TUNERS),
        distinct=len(_DISTINCT_TUNERS),
        tuners=sorted({t[2] for t in _DISTINCT_TUNERS}),
        budget=BUDGET,
        sequential_seconds=t_sequential,
        service_seconds=t_service,
        speedup=speedup,
        measurements=stats.measurements,
        executor_calls=stats.executor_calls,
        packed_configs=stats.packed_configs,
        coalesced=stats.coalesced,
        rounds=stats.rounds,
    )
    # Heterogeneous-session accounting: one run per distinct (problem, tuner),
    # every duplicate coalesced, and every lowered configuration executed
    # through a shared packed call.
    assert stats.tuning_runs == len(_DISTINCT_TUNERS), "duplicates did not coalesce"
    assert stats.coalesced == len(_MIX_TUNERS) - len(_DISTINCT_TUNERS)
    assert stats.packed_configs == stats.measurements
    _gate_speedup(speedup)
