#!/usr/bin/env python3
"""Always-on tuning daemon demo: submit, SIGKILL, restart, re-serve.

Walks the daemon's whole fault model in one sitting, against a journal in
a temp directory:

1. **Submit + tune** — a client submits two conv-tuning requests over the
   wire protocol; the daemon journals each *before* acknowledging, tunes
   them, and journals the results.
2. **SIGKILL** — the daemon dies with no drain, no snapshot, no flush.
   The client's next call fails with ``ConnectionError``.
3. **Restart + recover** — a fresh daemon on the same journal folds the
   log: finished requests are re-served **bit-identically with zero
   re-measurement**, and a request killed mid-flight is replayed to the
   same deterministic result.
4. **Admission control** — a rate-limited daemon pushes back with typed
   ``RETRY_AFTER`` rejections; the client backs off (advancing the
   injected fake clock) and eventually lands the request.  No hang, ever.
5. **Pool backend** — the same daemon fronts the streaming
   ``TuningWorkerPool`` (``backend=``): answers are bit-identical to the
   service backend, and the journal fault model is unchanged.

Everything runs over the deterministic in-process ``FakeTransport`` (the
same wire format as the ``AF_UNIX`` socket server — every op and reply
JSON round-trips), so the demo is reproducible and CI-safe; the pool act
uses the deterministic serial shards for the same reason.

Run with:  python examples/tuning_daemon_demo.py

``--daemonize`` appends the real-deployment act: double-fork a detached
daemon process (``repro.service.daemonize``) with two pool worker processes
behind an ``AF_UNIX`` socket, tune through it with ``SocketTransport``, then
SIGTERM it and watch the graceful drain remove the pidfile.  Off by default
so the demo stays safe for sandboxed test runners.
"""

import sys
import tempfile
from pathlib import Path

from repro.conv import ConvParams
from repro.gpusim import V100
from repro.obs import FakeClock
from repro.service import (
    DaemonClient,
    FakeTransport,
    TuningDaemon,
    TuningRequest,
    TuningWorkerPool,
)

LAYER_A = ConvParams.square(14, 64, 64, kernel=3, stride=1, padding=1)
LAYER_B = ConvParams.square(8, 32, 48, kernel=3, stride=1, padding=1)
BUDGET = 32


def _request(params, seed=0):
    return TuningRequest(
        params, V100, max_measurements=BUDGET, seed=seed, pruned=False, tuner="random"
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-daemon-"))
    journal = workdir / "requests.log"

    # -- act 1: submit and tune over the wire ---------------------------- #
    daemon = TuningDaemon(journal)
    transport = FakeTransport(daemon)
    client = DaemonClient(transport)

    rid_a = client.submit(_request(LAYER_A))
    rid_b = client.submit(_request(LAYER_B))
    result_a = client.result(rid_a)
    result_b = client.result(rid_b)
    print("act 1: submit + tune")
    print(f"  {rid_a[:12]}...  best {result_a.best_gflops:8.1f} GFLOP/s "
          f"({len(result_a.trials)} trials measured)")
    print(f"  {rid_b[:12]}...  best {result_b.best_gflops:8.1f} GFLOP/s "
          f"({len(result_b.trials)} trials measured)")
    print(f"  daemon: {daemon.stats.describe()}")

    # -- act 2: SIGKILL --------------------------------------------------- #
    transport.kill()
    daemon.kill()
    try:
        client.status(rid_a)
    except ConnectionError as exc:
        print(f"act 2: SIGKILL -> client sees: {exc}")

    # -- act 3: restart, recover, re-serve -------------------------------- #
    restarted = TuningDaemon(journal)
    transport.revive(restarted)
    served_a = client.result(rid_a)  # straight from the journal
    identical = [
        (t.index, t.config.as_dict(), t.time_seconds) for t in served_a.trials
    ] == [(t.index, t.config.as_dict(), t.time_seconds) for t in result_a.trials]
    print("act 3: restart + recover")
    print(f"  recovered {restarted.stats.recovered} journal entries "
          f"({restarted.stats.replayed} replayed)")
    print(f"  re-served result bit-identical: {identical}")
    print(f"  measurements taken by the restarted daemon: "
          f"{restarted.backend.stats.measurements}")
    restarted.drain()
    restarted.close()

    # -- act 4: overload pushback + client backoff ------------------------ #
    clock = FakeClock()
    limited = TuningDaemon(
        workdir / "limited.log", clock=clock, rate_limit=1.0, burst=1
    )
    # Backoff sleeps advance the fake clock, refilling the token bucket.
    patient = DaemonClient(FakeTransport(limited), sleep=clock.advance)
    patient.submit(_request(LAYER_A))
    patient.submit(_request(LAYER_B))  # rejected RETRY_AFTER, retried, lands
    print("act 4: overload -> typed RETRY_AFTER -> backoff -> success")
    print(f"  client retries: {patient.retries}, "
          f"daemon rejections: {limited.stats.rejected_overload}, "
          f"accepted: {limited.stats.accepted}")
    limited.drain()
    limited.close()

    # -- act 5: the same front door over the streaming worker pool -------- #
    # Serial shards keep the act deterministic and CI-safe; a deployment
    # would drop `use_processes=False` for a real process fleet.
    pool = TuningWorkerPool(num_workers=2, use_processes=False)
    pooled = TuningDaemon(workdir / "pool.log", backend=pool)
    pool_client = DaemonClient(FakeTransport(pooled))
    pooled_a = pool_client.result(pool_client.submit(_request(LAYER_A)))
    identical = [
        (t.index, t.config.as_dict(), t.time_seconds) for t in pooled_a.trials
    ] == [(t.index, t.config.as_dict(), t.time_seconds) for t in result_a.trials]
    print("act 5: pool-backed daemon (backend='pool')")
    print(f"  pool result bit-identical to service backend: {identical}")
    counters = pooled.fleet_snapshot().counters
    print(f"  daemon.backend.submits: {counters['daemon.backend.submits']}, "
          f"pool.requests: {counters['pool.requests']}")
    pooled.drain()
    pooled.close()

    if "--daemonize" in sys.argv[1:]:
        daemonized_act(workdir)
    else:
        print("act 6: daemonized process wrapper (skipped; pass --daemonize)")


def daemonized_act(workdir: Path) -> None:
    """Real deployment shape: a detached daemon process behind a socket."""
    import os
    import signal
    import time

    from repro.service import SocketTransport, daemonize

    socket_path = workdir / "daemon.sock"
    pidfile = workdir / "daemon.pid"
    daemonize(
        workdir / "real.log",
        socket_path,
        pidfile,
        workdir / "daemon.out",
        backend="pool",
        workers=2,
    )
    client = DaemonClient(SocketTransport(str(socket_path)))
    for _ in range(200):  # pacing loop, not a timing source
        try:
            client.ping()
            break
        except (ConnectionError, OSError):
            time.sleep(0.05)  # pacing, not a timing source
    result = client.submit_and_wait(_request(LAYER_A, seed=7))
    pid = int(pidfile.read_text())
    print("act 6: daemonized process wrapper")
    print(f"  detached pid {pid}, best {result.best_gflops:8.1f} GFLOP/s "
          f"over the unix socket")
    os.kill(pid, signal.SIGTERM)
    for _ in range(200):  # pacing loop, not a timing source
        if not pidfile.exists():
            break
        time.sleep(0.05)  # pacing, not a timing source
    print(f"  SIGTERM -> graceful drain, pidfile removed: "
          f"{not pidfile.exists()}")


if __name__ == "__main__":
    main()
