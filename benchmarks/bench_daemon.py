"""Tuning daemon — crash recovery and re-serving at journal scale.

The always-on daemon's restart story has two costs that must stay flat as
the journal grows:

* ``recovery`` — a restarted daemon folds its request journal (snapshot +
  log-tail replay) before serving.  We synthesize a 10k-entry journal of
  completed requests (realistic result payloads) and require the fold to
  sustain a floor of entries/second, on both the replay-everything path
  (SIGKILL: no snapshot) and the post-drain path (snapshot, header-only
  tail).
* ``re-serve`` — a recovered daemon answers journaled requests from the
  journal, **never** by re-tuning.  We tune a workload through a live
  daemon, SIGKILL it, restart, and re-request everything: the results must
  be bit-identical and the restarted daemon's measurement count must be
  exactly zero (hard gate, never softened), with re-serving a large
  multiple faster than the original tuning.
* ``socket round trip`` — a client keeps one connection to the daemon's
  socket, so a ``ping`` over it must cost a fraction of one that connects
  afresh (a fresh connection also starts a server thread).  This floor is
  what notices a transport that connects once per call.

Correctness gates (zero re-measurement, bit-identity, exact entry counts)
always fail hard; wall-clock floors soften to warnings under
``BENCH_SPEEDUP_SOFT=1``.
"""

from __future__ import annotations

import os
import signal
import warnings

import pytest

from conftest import emit, write_bench_json
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.obs import MonotonicClock
from repro.service import (
    DaemonClient,
    DaemonSocketServer,
    FakeTransport,
    RequestJournal,
    SocketTransport,
    TuningDaemon,
    TuningRequest,
    TuningWorkerPool,
    request_id,
    request_to_wire,
    result_to_wire,
)

LAYER = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
JOURNAL_ENTRIES = 10_000
SERVE_REQUESTS = 8
TUNE_BUDGET = 24
#: pings per timed round, and rounds per side (the best round counts).
SOCKET_PINGS = 500
SOCKET_ROUNDS = 5

#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def _request(spec, seed, budget=TUNE_BUDGET):
    return TuningRequest(
        LAYER, spec, max_measurements=budget, seed=seed, pruned=False, tuner="random"
    )


def _soft_floor(name, value, floor):
    if value >= floor:
        return
    message = f"{name} is {value:.3g}, below the {floor} floor"
    if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
        warnings.warn(message, stacklevel=2)
    else:
        pytest.fail(message)


def _trials(result):
    return [(t.index, t.config.as_dict(), t.time_seconds, t.gflops) for t in result.trials]


def _synthesize_journal(path, spec, result_wire):
    """10k completed requests, journaled through the real event API."""
    journal = RequestJournal(path, snapshot_min_entries=10**9)  # no auto-snap
    request_wire = request_to_wire(_request(spec, seed=0))
    start = _CLOCK.now()
    for i in range(JOURNAL_ENTRIES):
        rid = f"{i:032d}"
        journal.accept(rid, request_wire)
        journal.mark_running(rid)
        journal.complete(rid, result_wire)
    t_write = _CLOCK.now() - start
    return journal, t_write


def run_daemon_benchmark(spec, tmp_path):
    # One real tuned result as the journaled payload (realistic line size).
    reference = _request(spec, seed=0).tune_direct()
    result_wire = result_to_wire(reference)

    # -- recovery: fold a 10k-entry journal ------------------------------ #
    log_path = os.path.join(tmp_path, "requests.log")
    journal, t_write = _synthesize_journal(log_path, spec, result_wire)
    journal.close()  # SIGKILL-equivalent: full log tail, no snapshot
    start = _CLOCK.now()
    recovered = RequestJournal(log_path)
    t_recover_log = _CLOCK.now() - start
    assert len(recovered) == JOURNAL_ENTRIES
    assert all(e.status == "done" for e in recovered.states().values())
    recovery_per_second = JOURNAL_ENTRIES / t_recover_log

    # Post-drain path: snapshot compaction, then a header-only tail.
    recovered.snapshot()
    recovered.close()
    start = _CLOCK.now()
    compacted = RequestJournal(log_path)
    t_recover_snap = _CLOCK.now() - start
    assert len(compacted) == JOURNAL_ENTRIES
    compacted.close()
    snap_recovery_per_second = JOURNAL_ENTRIES / t_recover_snap

    # -- re-serve: tune, SIGKILL, restart, re-request everything --------- #
    daemon_path = os.path.join(tmp_path, "daemon.log")
    daemon = TuningDaemon(daemon_path)
    client = DaemonClient(FakeTransport(daemon))
    requests = [_request(spec, seed=seed) for seed in range(SERVE_REQUESTS)]
    start = _CLOCK.now()
    rids = [client.submit(request) for request in requests]
    originals = [_trials(client.result(rid)) for rid in rids]
    t_tune = _CLOCK.now() - start
    measured = daemon.backend.stats.measurements
    assert measured == SERVE_REQUESTS * TUNE_BUDGET
    daemon.kill()

    start = _CLOCK.now()
    restarted = TuningDaemon(daemon_path)
    t_restart = _CLOCK.now() - start
    client = DaemonClient(FakeTransport(restarted))
    start = _CLOCK.now()
    served = [_trials(client.result(rid)) for rid in rids]
    t_reserve = _CLOCK.now() - start
    # Hard gates: bit-identical re-serving with zero re-measurement.
    assert served == originals, "re-served results are not bit-identical"
    assert restarted.backend.stats.measurements == 0, (
        f"restart re-measured {restarted.backend.stats.measurements} configs; "
        f"journaled results must serve with zero re-measurement"
    )
    assert restarted.stats.recovered == SERVE_REQUESTS
    # An idempotent resubmit also re-serves without re-admission.
    assert client.submit(requests[0]) == request_id(requests[0])
    assert restarted.stats.accepted == 0
    restarted.kill()
    reserve_speedup = t_tune / t_reserve

    table = ResultTable(
        f"Tuning daemon ({spec.name}, {JOURNAL_ENTRIES:,}-entry journal, "
        f"{SERVE_REQUESTS} x {TUNE_BUDGET}-trial requests)",
        columns=["phase", "seconds", "per_second"],
    )
    table.add_row(
        phase=f"journal write ({JOURNAL_ENTRIES:,} x 3 events)",
        seconds=t_write,
        per_second=JOURNAL_ENTRIES / t_write,
    )
    table.add_row(
        phase="recovery (full log tail)",
        seconds=t_recover_log,
        per_second=recovery_per_second,
    )
    table.add_row(
        phase="recovery (post-drain snapshot)",
        seconds=t_recover_snap,
        per_second=snap_recovery_per_second,
    )
    table.add_row(phase="tune via daemon", seconds=t_tune, per_second=measured / t_tune)
    table.add_row(
        phase="restart + re-serve",
        seconds=t_restart + t_reserve,
        per_second=SERVE_REQUESTS / (t_restart + t_reserve),
    )
    return table, {
        "journal_entries": JOURNAL_ENTRIES,
        "journal_write_seconds": t_write,
        "recovery_seconds": t_recover_log,
        "recovery_per_second": recovery_per_second,
        "snapshot_recovery_seconds": t_recover_snap,
        "snapshot_recovery_per_second": snap_recovery_per_second,
        "serve_requests": SERVE_REQUESTS,
        "tune_seconds": t_tune,
        "measurements_before_kill": measured,
        "restart_seconds": t_restart,
        "reserve_seconds": t_reserve,
        "remeasurements_after_restart": 0,
        "reserve_speedup": reserve_speedup,
    }


def run_pool_daemon_benchmark(spec, tmp_path):
    """Pool-backed daemon vs service-backed: same journal, same answers.

    Three hard gates (never softened):

    * the pool-backed daemon is bit-identical to the service-backed one on
      the same workload — same rids, same trial trajectories, same
      measurement counts;
    * a SIGKILLed pool-backed daemon restarts and re-serves every result
      from the journal with **zero** pool measurements;
    * a SIGKILLed *worker* under a live daemon degrades per the pool's
      fault model — the parent salvages the shard and the workload still
      completes bit-identically (skipped when the platform cannot fork).
    """
    requests = [_request(spec, seed=seed) for seed in range(SERVE_REQUESTS)]

    # Reference: the service-backed daemon on the same workload.
    svc_daemon = TuningDaemon(os.path.join(tmp_path, "svc.log"))
    svc_client = DaemonClient(FakeTransport(svc_daemon))
    start = _CLOCK.now()
    rids = [svc_client.submit(request) for request in requests]
    svc_results = [_trials(svc_client.result(rid)) for rid in rids]
    t_service = _CLOCK.now() - start
    svc_measured = svc_daemon.backend.stats.measurements
    svc_daemon.kill()

    # -- gate 1: pool backend is bit-identical, measurement for measurement #
    pool_path = os.path.join(tmp_path, "pool.log")
    pool = TuningWorkerPool(num_workers=2)
    daemon = TuningDaemon(pool_path, backend=pool)
    client = DaemonClient(FakeTransport(daemon))
    start = _CLOCK.now()
    pool_rids = [client.submit(request) for request in requests]
    pool_results = [_trials(client.result(rid)) for rid in pool_rids]
    t_pool = _CLOCK.now() - start
    process_fleet = pool.stats.mode == "processes"
    assert pool_rids == rids, "request ids must not depend on the backend"
    assert pool_results == svc_results, (
        "pool-backed daemon diverged from the service-backed daemon"
    )
    daemon.drain()  # stop the fleet: worker stats fold in at their byes
    pool_measured = pool.stats.measurements
    assert pool_measured == svc_measured == SERVE_REQUESTS * TUNE_BUDGET, (
        f"pool backend measured {pool_measured}, service {svc_measured}; "
        f"expected exactly {SERVE_REQUESTS * TUNE_BUDGET} each"
    )
    daemon.kill()

    # -- gate 2: restart re-serves with zero pool measurements ----------- #
    restarted_pool = TuningWorkerPool(num_workers=2)
    start = _CLOCK.now()
    restarted = TuningDaemon(pool_path, backend=restarted_pool)
    client = DaemonClient(FakeTransport(restarted))
    served = [_trials(client.result(rid)) for rid in pool_rids]
    t_reserve = _CLOCK.now() - start
    assert served == svc_results, "re-served results are not bit-identical"
    assert restarted_pool.stats.measurements == 0, (
        f"restart re-measured {restarted_pool.stats.measurements} configs "
        f"through the pool; journaled results must serve for free"
    )
    restarted.kill()
    pool_reserve_speedup = t_pool / t_reserve

    # -- gate 3: SIGKILL a worker under a live daemon -------------------- #
    worker_failures = 0
    if process_fleet:
        kill_pool = TuningWorkerPool(num_workers=2)
        kill_daemon = TuningDaemon(os.path.join(tmp_path, "kill.log"), backend=kill_pool)
        kill_client = DaemonClient(FakeTransport(kill_daemon))
        kill_rids = [
            kill_client.submit(_request(spec, seed=100 + seed))
            for seed in range(SERVE_REQUESTS)
        ]
        victim = next(iter(kill_pool._serve_workers.values()))
        os.kill(victim.pid, signal.SIGKILL)
        degraded = [_trials(kill_client.result(rid)) for rid in kill_rids]
        direct = [
            _trials(_request(spec, seed=100 + seed).tune_direct())
            for seed in range(SERVE_REQUESTS)
        ]
        assert degraded == direct, (
            "workload diverged after a worker SIGKILL under a live daemon"
        )
        worker_failures = kill_pool.stats.worker_failures
        assert worker_failures >= 1, "the kill was absorbed without a failover"
        kill_daemon.kill()

    table = ResultTable(
        f"Pool-backed daemon ({spec.name}, {SERVE_REQUESTS} x "
        f"{TUNE_BUDGET}-trial requests, "
        f"{'process fleet' if process_fleet else 'serial fallback'})",
        columns=["phase", "seconds", "per_second"],
    )
    table.add_row(
        phase="tune via service backend",
        seconds=t_service,
        per_second=svc_measured / t_service,
    )
    table.add_row(
        phase="tune via pool backend",
        seconds=t_pool,
        per_second=pool_measured / t_pool,
    )
    table.add_row(
        phase="restart + re-serve (pool)",
        seconds=t_reserve,
        per_second=SERVE_REQUESTS / t_reserve,
    )
    return table, {
        "serve_requests": SERVE_REQUESTS,
        "process_fleet": process_fleet,
        "service_tune_seconds": t_service,
        "pool_tune_seconds": t_pool,
        "pool_measurements": pool_measured,
        "remeasurements_after_restart": 0,
        "pool_reserve_seconds": t_reserve,
        "pool_reserve_speedup": pool_reserve_speedup,
        "worker_failures_survived": worker_failures,
    }


def _time_pings(path, fresh):
    """Seconds for :data:`SOCKET_PINGS` pings over one transport, or over a
    fresh transport (a new connection) each."""
    transport = SocketTransport(path)
    start = _CLOCK.now()
    try:
        for _ in range(SOCKET_PINGS):
            assert DaemonClient(transport, max_attempts=1).ping()
            if fresh:
                transport.close()
                transport = SocketTransport(path)
    finally:
        transport.close()
    return _CLOCK.now() - start


def run_socket_round_trip(tmp_path):
    """Best-of-rounds ping time on one connection vs a connection per call,
    against a live :class:`DaemonSocketServer`; the sides alternate."""
    path = os.path.join(tmp_path, "rt.sock")
    daemon = TuningDaemon(os.path.join(tmp_path, "rt.log"))
    server = DaemonSocketServer(daemon, path).start()
    try:
        kept, fresh = [], []
        for _ in range(SOCKET_ROUNDS):
            kept.append(_time_pings(path, fresh=False))
            fresh.append(_time_pings(path, fresh=True))
    finally:
        server.stop()
        daemon.close()
    kept_us = min(kept) / SOCKET_PINGS * 1e6
    fresh_us = min(fresh) / SOCKET_PINGS * 1e6
    return {
        "pings": SOCKET_PINGS,
        "rounds": SOCKET_ROUNDS,
        "kept_connection_us_per_call": kept_us,
        "fresh_connection_us_per_call": fresh_us,
        "call_speedup": fresh_us / kept_us,
    }


@pytest.mark.benchmark(group="daemon")
def test_daemon_recovery_and_reserve(benchmark, gpu_v100, tmp_path):
    table, stats = benchmark.pedantic(
        run_daemon_benchmark, args=(gpu_v100, tmp_path), rounds=1, iterations=1
    )
    emit(render_table(table, precision=2))
    emit(
        f"recovery: {stats['recovery_per_second']:,.0f} entries/s "
        f"(snapshot path {stats['snapshot_recovery_per_second']:,.0f}/s), "
        f"re-serve speedup: {stats['reserve_speedup']:.0f}x, "
        f"re-measurements after restart: {stats['remeasurements_after_restart']}"
    )
    write_bench_json("daemon", gpu=gpu_v100.name, **stats)
    # Wall-clock floors (soft under BENCH_SPEEDUP_SOFT=1); the bit-identity
    # and zero-re-measurement asserts above always gate.
    _soft_floor("recovery_per_second", stats["recovery_per_second"], 2_000)
    _soft_floor(
        "snapshot_recovery_per_second", stats["snapshot_recovery_per_second"], 2_000
    )
    _soft_floor("reserve_speedup", stats["reserve_speedup"], 5.0)


@pytest.mark.benchmark(group="daemon")
def test_pool_backed_daemon(benchmark, gpu_v100, tmp_path):
    table, stats = benchmark.pedantic(
        run_pool_daemon_benchmark, args=(gpu_v100, tmp_path), rounds=1, iterations=1
    )
    emit(render_table(table, precision=2))
    emit(
        f"pool backend: {'process fleet' if stats['process_fleet'] else 'serial'}, "
        f"re-serve speedup {stats['pool_reserve_speedup']:.0f}x, "
        f"worker failures survived: {stats['worker_failures_survived']}, "
        f"re-measurements after restart: {stats['remeasurements_after_restart']}"
    )
    write_bench_json("daemon_pool", gpu=gpu_v100.name, **stats)
    # The bit-identity / zero-re-measurement / failover asserts above always
    # gate; only the wall-clock floor softens under BENCH_SPEEDUP_SOFT=1.
    # Floor calibrated from a 3-run spread of 4.3-7.1x (the pool restart
    # pays fleet startup that the service backend does not).
    _soft_floor(
        "pool_reserve_speedup", stats["pool_reserve_speedup"], 3.0
    )


@pytest.mark.benchmark(group="daemon")
def test_socket_round_trip(benchmark, tmp_path):
    stats = benchmark.pedantic(
        run_socket_round_trip, args=(str(tmp_path),), rounds=1, iterations=1
    )
    emit(
        f"socket ping: {stats['kept_connection_us_per_call']:.0f} us on one "
        f"connection, {stats['fresh_connection_us_per_call']:.0f} us on a fresh "
        f"one ({stats['call_speedup']:.1f}x)"
    )
    write_bench_json("daemon_socket", **stats)
    # Floor from ten runs of 3.9-6.0x on a 2-vCPU VM (>= 20% headroom under
    # the minimum); a transport that connects per call reads ~1x.
    _soft_floor("call_speedup", stats["call_speedup"], 3.0)
