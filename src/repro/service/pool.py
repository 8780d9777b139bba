"""Sharded tuning across a long-lived worker pool with record streaming.

For workloads whose search spaces are too large for one process, the pool
shards :class:`~repro.service.TuningRequest` objects across worker
processes.  Each worker runs its own :class:`~repro.service.TuningService`
(so coalescing and cross-request batching still apply *within* a shard) with
its own private :class:`~repro.core.autotune.database.TuningDatabase`.

There is one execution path, the **serving session**:
:meth:`~TuningWorkerPool.start` brings up the shard fleet with empty
backlogs, :meth:`~TuningWorkerPool.submit` places one request at a time on
a shard and returns a per-request
:class:`~repro.service.futures.TuningFuture` immediately,
:meth:`~TuningWorkerPool.step` pumps the fleet one round without blocking
(drain streamed records and per-request completions, advance in-parent
shards, detect dead workers), :meth:`~TuningWorkerPool.wait` is the pause
between busy steps (until a worker's message arrives) and
:meth:`~TuningWorkerPool.stop` drains and retires it.  The batch entry point
:meth:`~TuningWorkerPool.tune` is one such session over a known workload:
requests the caller's database covers are answered before any worker
starts, the rest are placed round-robin over ``min(num_workers, distinct
requests)`` shards that each start with their share as backlog, pumped
until every future settles, and stopped.  A submit goes to the shard with
the fewest open tickets (the lowest-numbered on a tie), so no request waits
in a full shard's backlog while another shard has room; a request equal to
one with an open ticket goes to that ticket's shard instead and coalesces
there.

The shards **stream**.  A shard advances one :meth:`_ShardRunner.round` at
a time: inject the records other shards sent, run one scheduling round, and
report every record that changed its database
(:meth:`~repro.core.autotune.database.TuningDatabase.changes_since`, as a
serializable :class:`~repro.core.autotune.database.RecordEnvelope`) and
every settled ticket as result messages.  A worker process sends them home
over its own result pipe; the parent hands an in-parent runner's (serial
mode, failover) to the same handler, so every shard behaves alike: a pool
future is flagged ``from_database`` only when the parent pre-served it, and
a shard failure that is not a typed
:class:`~repro.service.errors.RequestError` arrives as
:class:`~repro.service.errors.RequestFailed`, also when the shard's submit
itself raises (a tuner that cannot be built, a deadline that passed in the
backlog); the shard keeps serving.  The parent folds each
arriving record into the shared database immediately (monotonic keep-better
``apply``) and pushes the winners down every *other* shard's inbox, so
submit-time database serving sees cross-shard bests mid-workload: a problem
shard A already solved is never re-tuned by shard B's not-yet-admitted
requests.  Shards admit their backlog incrementally (``admit_window`` runs
at a time) precisely so that later requests still *are* "new submits" when a
cross-shard record lands.

Each worker has one channel each way: the parent sends submits, synced
records and the stop sentinel down its inbox queue (whose feeder thread
keeps those sends off the parent's main thread), and the worker sends its
results home over its own pipe.  Only the worker holds that pipe's write
end, so it reads EOF once the worker exits, however it exits, and a worker
killed mid-send holds up no other worker.  The parent never blocks on those
pipes inside :meth:`~TuningWorkerPool.step`: a driver waits on their read
ends in :meth:`~TuningWorkerPool.wait`, outside whatever lock it holds
around the step (the daemon's pump), so nothing queues behind the wait.

Invariants the streaming layer preserves:

* **Bit-identity of fresh runs** — injected records never touch an in-flight
  session (sessions do not consult the database mid-run), so every freshly
  tuned result remains bit-identical to
  :meth:`~repro.service.request.TuningRequest.tune_direct`.
* **Monotonic database** — all folds go through keep-better ``apply``;
  records can only improve, whatever order they arrive in (streaming apply
  of any arrival permutation equals one bulk ``merge`` of the same records).
* **Loop-free exchange** — only records that *changed* a database are
  re-broadcast, so an echoed record dies at the first database that already
  holds it.

Fault tolerance: a worker that dies (killed, crashed) is detected by its
pipe's EOF, and the parent degrades gracefully — its unresolved tickets (and
any later submits routed to it) re-run in an in-parent runner whose private
database starts as a copy of the shared one, so records the worker streamed
before dying are served, not re-tuned; the failure is counted in
:attr:`TuningWorkerPool.stats` and the pool — and whatever daemon sits
above it — keeps serving.  Malformed messages and sync payloads ("poisoned
envelopes") are dropped and counted, never applied.  When no worker
processes can be created at all — restricted sandboxes, missing semaphores
— every shard runs in-process, interleaved deterministically one round
each, with the same streaming semantics and results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from multiprocessing.util import register_after_fork
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.autotune.database import (
    RecordEnvelope,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
)
from ..core.autotune.engine import TuningResult
from ..obs import (
    NULL_OBS,
    MetricsRegistry,
    MetricsSnapshot,
    MonotonicClock,
    Observability,
)
from .errors import RequestCancelled, RequestFailed, as_request_error, error_from_wire
from .futures import TuningFuture
from .request import TuningRequest
from .scheduler import ServiceStats, TuningService

__all__ = ["PoolStats", "TuningWorkerPool"]

#: parent's poll interval on the worker pipes while it waits for the
#: workers' final reports, and its longest wait between batch steps.
_POLL_SECONDS = 0.2
#: serving worker's idle pacing between loop iterations (pacing only).
_SERVE_IDLE_SLEEP = 0.005


@dataclass
class PoolStats:
    """Accounting of one :meth:`TuningWorkerPool.tune` workload or serving
    session.

    Like :class:`~repro.service.scheduler.ServiceStats`, this is a *snapshot
    view* since the registry migration: the live counts are thread-safe
    registry counters and :attr:`TuningWorkerPool.stats` materialises one
    coherent copy per read.
    """

    requests: int = 0
    #: requests answered from the caller's database in the parent.
    pre_served: int = 0
    shards: int = 0
    #: "serial" or "processes" ("unused" until a workload ran).
    mode: str = "unused"
    #: record envelopes received by the parent mid-workload ...
    records_streamed: int = 0
    #: ... of which improved the shared database (and were re-broadcast).
    records_applied: int = 0
    #: malformed payloads dropped by the parent or a worker.
    poisoned_envelopes: int = 0
    #: workers that died mid-workload (their shards re-ran in the parent).
    worker_failures: int = 0
    # Aggregates over every shard service (plus in-parent recovery reruns):
    measurements: int = 0
    tuning_runs: int = 0
    database_hits: int = 0
    coalesced: int = 0

    def describe(self) -> str:
        return (
            f"PoolStats[{self.requests} requests over {self.shards} {self.mode} "
            f"shards ({self.pre_served} pre-served), {self.tuning_runs} runs / "
            f"{self.measurements} measurements, {self.records_streamed} records "
            f"streamed ({self.records_applied} applied, "
            f"{self.poisoned_envelopes} poisoned), "
            f"{self.worker_failures} worker failures]"
        )


def _decode_envelope(wire: object) -> Optional[RecordEnvelope]:
    """Decode a wire payload; ``None`` for poisoned envelopes (never raises)."""
    try:
        return RecordEnvelope.from_wire(wire)
    except TuningDatabaseError:
        return None


def _drain(q) -> List[object]:
    """Non-blocking drain of a multiprocessing queue.

    A frame that fails to deserialize (sender killed mid-put) is skipped —
    anything it carried is recovered by the keep-better final merge — with
    a bounded retry budget so a permanently wedged pipe cannot spin forever.
    """
    items: List[object] = []
    bad_frames = 0
    while bad_frames < 100:
        try:
            items.append(q.get_nowait())
        except queue.Empty:
            break
        except Exception:
            bad_frames += 1
    return items


class _ShardRunner:
    """Drive one shard's service incrementally, one :meth:`round` at a time.

    The runner owns the shard's private :class:`TuningService` and feeds it
    the shard's backlog at most ``admit_window`` active runs at a time
    (``<= 0`` = admit the whole backlog at once, maximal packing).  Windowed
    admission is what gives cross-shard streaming its leverage: a request
    still in the backlog when a synced record arrives is served at submit
    time with zero measurements.

    ``take_new_records`` returns the records stored since the last call
    using the database's revision counter; :meth:`round` advances the same
    checkpoint past the records it injects, so a shard never echoes back
    what it just received.
    """

    def __init__(
        self,
        admit_window: int = 0,
        database: Optional[TuningDatabase] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.service = TuningService(database=database, obs=obs)
        self.admit_window = admit_window
        #: backlog of (ticket, request); duplicates may be admitted out of
        #: backlog order (to coalesce onto their twin's in-flight run), so
        #: futures are keyed by ticket.
        self.pending: Deque[Tuple[int, TuningRequest]] = deque()
        self.futures: Dict[int, object] = {}
        self._checkpoint = self.service.database.revision

    def enqueue(self, ticket: int, request: TuningRequest) -> None:
        """Append one request to the backlog under the caller's ``ticket``."""
        self.pending.append((ticket, request))

    def step(self) -> bool:
        """Admit backlog into the window and run one scheduling round.

        Duplicates never wait on the window: a backlog head identical to an
        in-flight run is admitted straight away, and whenever an admitted
        request opens (or joins) a run, every identical request still in the
        backlog — however far back — is admitted with it.  They coalesce
        onto that run without opening new ones, so duplicates (notably
        unpruned requests, which the database can never serve) cost exactly
        what they would under all-at-once submission; windowed admission can
        only ever *remove* runs, never add them.

        Returns False once the shard is finished (nothing active, nothing
        pending) — by then every future is answered.
        """
        while self.pending:
            ticket, head = self.pending[0]
            if (
                not self.service.in_flight(head)
                and self.admit_window > 0
                and self.service.num_active >= self.admit_window
            ):
                break
            self.pending.popleft()
            self._submit(ticket, head)
            if self.service.in_flight(head):
                # The request is now in flight: pull its backlog duplicates
                # forward so they ride the run instead of re-tuning after
                # it retires.
                remaining: Deque[Tuple[int, TuningRequest]] = deque()
                for later_ticket, later in self.pending:
                    if later == head:
                        self._submit(later_ticket, later)
                    else:
                        remaining.append((later_ticket, later))
                self.pending = remaining
        return self.service.step() or bool(self.pending)

    def _submit(self, ticket: int, request: TuningRequest) -> None:
        """Submit one backlog entry.  A submit that raises (a tuner that
        cannot be built, a deadline that passed in the backlog) settles the
        ticket with that error, which :meth:`round` reports like any failed
        run, instead of ending the shard round."""
        try:
            self.futures[ticket] = self.service.submit(request)
        except Exception as exc:
            future = TuningFuture(request)
            future._set_exception(exc)
            self.futures[ticket] = future

    def take_new_records(self) -> List[TuningRecord]:
        new = self.service.database.changes_since(self._checkpoint)
        self._checkpoint = self.service.database.revision
        return new

    def round(
        self, shard: int, incoming: Sequence[TuningRecord]
    ) -> Tuple[bool, List[tuple]]:
        """One shard round: inject ``incoming``, :meth:`step`, report.

        Returns ``(progressed, messages)``: ``progressed`` is what
        :meth:`step` returned, and ``messages`` are in the result-pipe wire
        shapes — ``("record", shard, envelope_wire)`` for every newly stored
        record, then ``("done_one", shard, ticket, outcome)`` for every
        settled ticket, where ``outcome`` is ``("ok", result)`` or ``("err",
        error_wire)``.  Typed errors travel as their wire dicts so the
        parent re-raises the same class; any other failure becomes
        :class:`~repro.service.errors.RequestFailed`.
        """
        if incoming:
            self.service.inject_records(incoming)
        self._checkpoint = self.service.database.revision
        progressed = self.step()
        revision = self.service.database.revision
        messages: List[tuple] = [
            (
                "record",
                shard,
                RecordEnvelope(record=record, origin=shard, revision=revision).to_wire(),
            )
            for record in self.take_new_records()
        ]
        for ticket, future in list(self.futures.items()):
            if not future.done():
                continue
            del self.futures[ticket]
            try:
                result = future.result(timeout=0)
            except Exception as exc:
                outcome = ("err", as_request_error(exc).to_wire())
            else:
                outcome = ("ok", result)
            messages.append(("done_one", shard, ticket, outcome))
        return progressed, messages


def _serve_shard(
    shard_index: int,
    admit_window: int,
    backlog: Sequence[Tuple[int, TuningRequest]],
    inbox,
    results,
    obs_enabled: bool = False,
) -> None:
    """Worker process entry point (module-level: pickles everywhere).

    Runs the shard through a :class:`_ShardRunner`.  A known workload's
    share comes with the start arguments as ``backlog`` ``(ticket,
    request)`` pairs (empty when serving), so the first round packs a full
    window.  Everything else arrives on the ``inbox`` queue: ``("submit",
    ticket, request)``, ``("sync", envelope_wire)`` (poisoned envelopes are
    dropped and counted) and the ``("stop",)`` sentinel.  Each loop drains
    the inbox, runs one :meth:`_ShardRunner.round` and sends its messages
    down ``results``, the write end of this worker's own pipe.  After
    ``("stop",)`` the worker finishes its in-flight work, sends a final
    ``("bye", ...)`` report (stats, a metrics-snapshot wire dict,
    full-database safety net) and exits.  Anything else that ends the
    worker — a crash, a kill — leaves the pipe to read EOF without a
    ``bye``, and the parent fails the shard over.

    :class:`~repro.obs.Observability` holds locks and ring buffers and is
    deliberately not picklable, so the parent sends only ``obs_enabled`` and
    the worker builds its own bundle (real monotonic clock — a worker entry
    point is an edge of the system, where real clocks are allowed).

    A forked worker inherits its parent's signal handlers, which act on the
    parent's state, not the worker's.  The worker therefore restores the
    default SIGTERM action (a direct SIGTERM ends it and the parent fails
    the shard over) and ignores SIGINT (a terminal's Ctrl-C reaches the
    whole process group, and the parent's drain already stops its workers).
    A worker whose parent died exits at its next loop, once
    ``os.getppid()`` no longer names the parent it started under, or at
    once from a blocked send, which fails because no other process holds
    its pipe's read end.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    obs = Observability(
        enabled=obs_enabled, clock=MonotonicClock() if obs_enabled else None
    )
    runner = _ShardRunner(admit_window=admit_window, obs=obs)
    for ticket, request in backlog:
        runner.enqueue(ticket, request)
    poisoned = 0
    stopping = False
    while os.getppid() == parent:
        arrived = _drain(inbox)
        incoming: List[TuningRecord] = []
        for message in arrived:
            if message == ("stop",):
                stopping = True
            elif (
                isinstance(message, tuple)
                and len(message) == 3
                and message[0] == "submit"
                and isinstance(message[1], int)
                and isinstance(message[2], TuningRequest)
            ):
                runner.enqueue(message[1], message[2])
            elif isinstance(message, tuple) and len(message) == 2 and message[0] == "sync":
                envelope = _decode_envelope(message[1])
                if envelope is None:
                    poisoned += 1
                else:
                    incoming.append(envelope.record)
            else:
                poisoned += 1
        progressed, messages = runner.round(shard_index, incoming)
        for message in messages:
            results.send(message)
        if stopping and not progressed:
            report = {
                "stats": runner.service.stats,
                "metrics": runner.service.fleet_snapshot().to_wire(),
                "records": [r.to_dict() for r in runner.service.database.records()],
                "poisoned": poisoned,
            }
            results.send(("bye", shard_index, report))
            return
        if not progressed and not arrived:
            # Pacing while idle, not a timing source.
            time.sleep(_SERVE_IDLE_SLEEP)


class TuningWorkerPool:
    """Shard tuning workloads across processes, streaming records between them.

    One execution path (see the module docstring): a serving session —
    :meth:`start`, then the serving contract :class:`TuningService` shares
    (:meth:`submit`, :meth:`step`, :meth:`cancel`, :meth:`fleet_snapshot`,
    :meth:`describe`, :meth:`stop`, :meth:`terminate`) — with the batch
    :meth:`tune` run as one such session over a known workload.

    ``admit_window`` bounds how many runs each shard keeps active at once
    (``<= 0`` = admit the whole backlog up front).  Smaller windows trade a
    little packing density for more submit-time serving opportunities.

    ``use_processes`` forces the execution mode: ``None`` (default) tries
    processes and falls back to the deterministic serial interleaving,
    ``False`` always runs serially in-process, ``True`` requires processes
    (raises where they are unavailable).  Sessions with one shard always
    run serially — a pool buys nothing there.

    ``obs`` is an optional :class:`~repro.obs.Observability` bundle for the
    telemetry extras (stream counters, worker lifecycle events, sync-queue
    depths, spans).  The accounting behind :attr:`stats` is always live.
    Worker processes cannot share the parent's bundle (it is not picklable),
    so each worker builds its own when observability is enabled and ships a
    metrics snapshot back in its ``bye`` report; :meth:`fleet_snapshot`
    merges the shards' snapshots with the parent's into one fleet view.

    The pool is not thread-safe; the daemon above serialises every call
    under its own lock, and direct users must do the same.  The one
    exception is :meth:`wait`, which a pump calls with no lock held, while
    another thread may be inside any other call.
    """

    def __init__(
        self,
        num_workers: int = 0,
        admit_window: int = 4,
        use_processes: Optional[bool] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 = one per CPU, capped)")
        self.num_workers = num_workers or min(4, os.cpu_count() or 1)
        self.admit_window = admit_window
        self.use_processes = use_processes
        self.obs = obs if obs is not None else NULL_OBS
        # Observability extras: cumulative across workloads (unlike the
        # per-workload accounting), all null no-ops when obs is disabled.
        reg = self.obs.registry
        self._o_envelopes = reg.counter("pool.stream.envelopes")
        self._o_workers_started = reg.counter("pool.workers.started")
        self._o_workers_done = reg.counter("pool.workers.done")
        self._o_workers_failed = reg.counter("pool.workers.failed")
        self._o_sync_depth = reg.gauge("pool.sync.queue_depth")
        # Serving-session state (inert until a session starts; every
        # container is emptied again when it ends).
        self._serving = False
        self._serve_shards = 0
        self._serve_exchange: Optional[TuningDatabase] = None
        self._serve_futures: Dict[int, TuningFuture] = {}
        self._serve_tickets: Dict[int, Tuple[int, TuningRequest]] = {}
        self._next_ticket = 0
        self._serve_runners: Dict[int, _ShardRunner] = {}
        self._serve_inboxes: Dict[int, List[TuningRecord]] = {}
        self._serve_workers: Dict[int, object] = {}
        #: each worker's two channels: the inbox queue the parent sends
        #: down, and the read end of the pipe its results come home on
        #: (open until it reads EOF).
        self._serve_worker_inboxes: Dict[int, object] = {}
        self._serve_pipes: Dict[int, object] = {}
        self._serve_byes: Dict[int, bool] = {}
        self._reset_accounting()

    def _reset_accounting(self) -> None:
        """Fresh per-session accounting registry (every tune and start)."""
        self._metrics = MetricsRegistry()
        acc = self._metrics.scope("pool")
        self._c_requests = acc.counter("requests")
        self._c_pre_served = acc.counter("pre_served")
        self._c_shards = acc.counter("shards")
        self._c_records_streamed = acc.counter("records_streamed")
        self._c_records_applied = acc.counter("records_applied")
        self._c_poisoned = acc.counter("poisoned_envelopes")
        self._c_worker_failures = acc.counter("worker_failures")
        self._c_measurements = acc.counter("measurements")
        self._c_tuning_runs = acc.counter("tuning_runs")
        self._c_database_hits = acc.counter("database_hits")
        self._c_coalesced = acc.counter("coalesced")
        self._stats_mode = "unused"
        #: merged shard telemetry (worker wire snapshots in process mode,
        #: shard-service accounting in serial mode) for :meth:`fleet_snapshot`.
        self._shard_metrics = MetricsSnapshot()

    @property
    def stats(self) -> PoolStats:
        """One consistent accounting snapshot (see :class:`PoolStats`).

        While serving, in-parent shard runners' service accounting is added
        live (their stats are absorbed into the counters only at
        :meth:`stop`); process workers report theirs in their graceful
        ``bye``, so process-mode aggregates trail until the shard retires.
        """
        c = self._metrics.snapshot().counters
        stats = PoolStats(
            requests=c.get("pool.requests", 0),
            pre_served=c.get("pool.pre_served", 0),
            shards=c.get("pool.shards", 0),
            mode=self._stats_mode,
            records_streamed=c.get("pool.records_streamed", 0),
            records_applied=c.get("pool.records_applied", 0),
            poisoned_envelopes=c.get("pool.poisoned_envelopes", 0),
            worker_failures=c.get("pool.worker_failures", 0),
            measurements=c.get("pool.measurements", 0),
            tuning_runs=c.get("pool.tuning_runs", 0),
            database_hits=c.get("pool.database_hits", 0),
            coalesced=c.get("pool.coalesced", 0),
        )
        if self._serving:
            for runner in self._serve_runners.values():
                live = runner.service.stats
                stats.measurements += live.measurements
                stats.tuning_runs += live.tuning_runs
                stats.database_hits += live.database_hits
                stats.coalesced += live.coalesced
        return stats

    def _absorb(self, service_stats: ServiceStats) -> None:
        """Fold one shard service's accounting into the pool totals."""
        self._c_measurements.inc(service_stats.measurements)
        self._c_tuning_runs.inc(service_stats.tuning_runs)
        self._c_database_hits.inc(service_stats.database_hits)
        self._c_coalesced.inc(service_stats.coalesced)

    def fleet_snapshot(self) -> MetricsSnapshot:
        """One merged telemetry view of the last workload's whole fleet.

        Pool-level accounting (``pool.*``), the parent's observability
        extras, and every shard's shipped/absorbed telemetry (``service.*``
        plus worker-side extras), merged with the associative snapshot-merge
        semantics — so the totals are independent of shard report order.
        While serving, live in-parent runners contribute their current
        accounting the same way (absorbed permanently at :meth:`stop`).
        """
        snapshot = self._metrics.snapshot().merged(self._shard_metrics)
        if self._serving:
            for runner in self._serve_runners.values():
                snapshot = snapshot.merged(runner.service.metrics_snapshot())
        return snapshot.merged(self.obs.snapshot())

    # ------------------------------------------------------------------ #
    def _shard(self, requests: Sequence[TuningRequest]) -> Tuple[int, List[int]]:
        """Place a known workload: ``(num_shards, shard of each request)``.

        ``num_shards`` is ``min(num_workers, distinct requests)``, so every
        shard gets work; distinct requests are dealt round-robin and
        duplicates follow their first occurrence, so they coalesce inside
        one shard.
        """
        num_shards = min(self.num_workers, len(set(requests)))
        shard_of: Dict[TuningRequest, int] = {}
        placement = [
            shard_of.setdefault(request, len(shard_of) % num_shards)
            for request in requests
        ]
        return num_shards, placement

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    # ------------------------------------------------------------------ #
    def tune(
        self,
        requests: Sequence[TuningRequest],
        database: Optional[TuningDatabase] = None,
    ) -> List[TuningResult]:
        """Tune a workload across the pool; results in submission order.

        One serving session over a known workload.  ``database`` (optional)
        plays the same role as the in-process service's shared database:
        requests it already covers are answered before any worker starts
        (an all-covered workload forks nothing), records streamed back
        mid-workload are folded into it immediately, and when the workload
        finishes it holds every worker's records.  The rest run on
        :meth:`_shard`'s placement — ``min(num_workers, distinct pending
        requests)`` shards, so a one-shard workload runs serially — each
        shard starting with its whole share, and are pumped until every
        future settles (:meth:`step`, then :meth:`wait` for the next
        message between steps), then the session stops.
        """
        if self._serving:
            raise RuntimeError(
                "pool is in serving mode; use submit()/step(), or stop() "
                "serving before running a batch workload"
            )
        requests = list(requests)
        self._reset_accounting()
        if not requests:
            return []
        self._c_requests.inc(len(requests))
        #: the cross-shard exchange point: the caller's database when given
        #: (so streamed records are visible to the caller mid-workload),
        #: otherwise a workload-private one.
        exchange = database if database is not None else TuningDatabase()
        results: List[Optional[TuningResult]] = [None] * len(requests)
        pending: List[int] = []
        for i, request in enumerate(requests):
            record = request.lookup(exchange)
            if record is None:
                pending.append(i)
            else:
                results[i] = record.as_result()
        self._c_pre_served.inc(len(requests) - len(pending))
        if not pending:
            self._stats_mode = "serial"
            return results
        work = [requests[i] for i in pending]
        num_shards, placement = self._shard(work)
        futures = self._start(exchange, num_shards, list(zip(work, placement)))
        try:
            self.step()
            while self._serve_futures:
                self.wait(_POLL_SECONDS)
                self.step()
        except BaseException:
            self.terminate()
            raise
        self.stop()
        for i, future in zip(pending, futures):
            results[i] = future.result(timeout=0)
        return results

    # -- the serving session --------------------------------------------- #
    @property
    def serving(self) -> bool:
        return self._serving

    def start(self, database: Optional[TuningDatabase] = None) -> None:
        """Enter serving mode: bring up ``num_workers`` shards with empty
        backlogs.

        ``database`` plays the ``tune(database=...)`` role for the whole
        serving session: pruned submits it covers are answered in the
        parent with zero measurements, streamed records fold into it
        immediately, and the graceful :meth:`stop` leaves it holding every
        shard's records.  The daemon passes its shared database here.

        Mode selection: processes when available (and more than one
        shard), else the deterministic in-process serial interleaving;
        ``use_processes`` forces either.  A stopped or terminated pool may
        ``start()`` again.
        """
        if self._serving:
            raise RuntimeError("pool is already serving; stop() it first")
        self._reset_accounting()
        exchange = database if database is not None else TuningDatabase()
        self._start(exchange, self.num_workers)

    def _start(
        self,
        exchange: TuningDatabase,
        num_shards: int,
        placed: Sequence[Tuple[TuningRequest, int]] = (),
    ) -> List[TuningFuture]:
        """Bring up ``num_shards`` shards around ``exchange``, each starting
        with its share of the ``(request, shard)`` pairs in ``placed`` as
        its backlog; returns their futures in order."""
        self._serve_exchange = exchange
        self._serve_shards = num_shards
        self._next_ticket = 0
        self._serving = True
        self._c_shards.inc(num_shards)
        backlogs: List[List[Tuple[int, TuningRequest]]] = [[] for _ in range(num_shards)]
        futures: List[TuningFuture] = []
        for request, shard in placed:
            ticket, future = self._ticket(request, shard)
            backlogs[shard].append((ticket, request))
            futures.append(future)
        started = False
        if num_shards > 1 and self.use_processes is not False:
            try:
                self._start_serving_processes(backlogs)
                started = True
            except (OSError, PermissionError, ImportError):
                if self.use_processes is True:
                    self._finish_serving()
                    raise
        if not started:
            for i in range(num_shards):
                self._serve_runners[i] = _ShardRunner(
                    admit_window=self.admit_window, obs=self.obs
                )
                self._serve_inboxes[i] = []
                for ticket, request in backlogs[i]:
                    self._serve_runners[i].enqueue(ticket, request)
        self._stats_mode = "processes" if started else "serial"
        return futures

    def _start_serving_processes(self, backlogs: List[list]) -> None:
        ctx = self._context()
        try:
            for i in range(self._serve_shards):
                self._serve_worker_inboxes[i] = ctx.Queue()
                reader, writer = ctx.Pipe(duplex=False)
                # Every forked child drops its copy of the read end, so an
                # orphaned worker's send fails instead of blocking for good.
                register_after_fork(reader, type(reader).close)
                self._serve_pipes[i] = reader
                process = ctx.Process(
                    target=_serve_shard,
                    args=(
                        i,
                        self.admit_window,
                        backlogs[i],
                        self._serve_worker_inboxes[i],
                        writer,
                        self.obs.enabled,
                    ),
                    daemon=True,
                )
                process.start()
                # Closed before the next fork, so the worker holds the only
                # write end and its pipe reads EOF once it exits.
                writer.close()
                self._o_workers_started.inc()
                self._serve_workers[i] = process
        except BaseException:
            for process in self._serve_workers.values():
                process.terminate()
            self._serve_workers.clear()
            self._close_serve_channels()
            raise

    def submit(self, request: TuningRequest) -> TuningFuture:
        """Serving-mode submit: returns a per-request future immediately.

        Pruned requests the shared database already covers are answered on
        the spot (``from_database``, zero measurements) exactly like
        :meth:`TuningService.submit`.  Everything else goes to the shard of
        an open ticket for an equal request, where the two coalesce, or else
        to the shard with the fewest open tickets.  The future settles as
        :meth:`step` pumps the fleet.
        """
        if not self._serving:
            raise RuntimeError("pool is not serving; call start() first")
        self._c_requests.inc()
        record = request.lookup(self._serve_exchange)
        if record is not None:
            self._c_pre_served.inc()
            future = TuningFuture(request)
            future.from_database = True
            future._set_result(record.as_result())
            return future
        load = [0] * self._serve_shards
        for shard, ticketed in self._serve_tickets.values():
            if ticketed == request:
                return self._enqueue(request, shard)
            load[shard] += 1
        return self._enqueue(request, load.index(min(load)))

    def _enqueue(self, request: TuningRequest, shard: int) -> TuningFuture:
        """Ticket ``request`` onto a running ``shard``'s backlog."""
        ticket, future = self._ticket(request, shard)
        runner = self._serve_runners.get(shard)
        if runner is not None:
            runner.enqueue(ticket, request)
        else:
            self._serve_worker_inboxes[shard].put(("submit", ticket, request))
        return future

    def _ticket(self, request: TuningRequest, shard: int) -> Tuple[int, TuningFuture]:
        """Open a parent future for ``request`` on ``shard``."""
        future = TuningFuture(request)
        ticket = self._next_ticket
        self._next_ticket += 1
        self._serve_futures[ticket] = future
        self._serve_tickets[ticket] = (shard, request)
        return ticket, future

    def step(self) -> bool:
        """Pump the serving fleet one round; True while work is in flight.

        Handles the streamed records and per-request completions the worker
        pipes already hold (failing dead workers over), advances every
        in-parent runner one scheduling round, and exchanges records between
        all shards.  It never blocks on a worker: a loop over it pauses in
        :meth:`wait` between busy steps, outside any lock it holds around
        the step.
        """
        if not self._serving:
            return False
        progressed = self._read_pipes(0)
        if self._step_runners():
            progressed = True
        return progressed or bool(self._serve_futures)

    def wait(self, timeout: float) -> None:
        """Pause between busy :meth:`step` calls: block until a worker pipe
        is readable or ``timeout`` seconds pass.

        Returns at once when an in-parent runner has work, since its rounds
        run in :meth:`step`.  Reads and closes no pipe; :meth:`step` handles
        what arrived.  The one call that is safe beside another thread's:
        the daemon's pump waits here with no lock held while a wire op
        runs, and a pipe that a concurrent step or stop closes under the
        wait ends it instead of raising.
        """
        for runner in list(self._serve_runners.values()):
            if runner.pending or runner.service.num_active:
                return
        try:
            wait(list(self._serve_pipes.values()), timeout)
        except (OSError, ValueError):  # a pipe closed under the wait
            pass

    def _read_pipes(self, timeout: float) -> bool:
        """Wait up to ``timeout`` for worker pipes to turn readable, then
        handle every message they hold; True when one settled a ticket,
        advanced the exchange or failed a shard over.

        EOF — the worker exited, however it exited — or a message that
        cannot be read closes the pipe, and fails the shard over unless its
        worker already said ``bye``.  A pipe reads EOF only after everything
        its worker sent, so a dead worker needs no grace period.
        """
        if not self._serve_pipes:
            return False
        ready = wait(list(self._serve_pipes.values()), timeout)
        progressed = False
        for shard, pipe in list(self._serve_pipes.items()):
            if pipe not in ready:
                continue
            while True:
                try:
                    if not pipe.poll():
                        break
                    message = pipe.recv()
                except Exception:  # EOF, or a message that cannot be read
                    del self._serve_pipes[shard]
                    pipe.close()
                    if shard not in self._serve_byes:
                        self._failover_serving_shard(shard)
                        progressed = True
                    break
                progressed = self._handle_serve_message(message) or progressed
        return progressed

    def _step_runners(self) -> bool:
        """Run one :meth:`_ShardRunner.round` of every in-parent runner and
        handle its messages as a worker's.  True when any runner progressed
        or a message settled a ticket or advanced the exchange."""
        progressed = False
        for shard in sorted(self._serve_runners):
            inbox, self._serve_inboxes[shard] = self._serve_inboxes[shard], []
            if inbox:
                self._o_sync_depth.set(len(inbox))
            ran, messages = self._serve_runners[shard].round(shard, inbox)
            for message in messages:
                ran = self._handle_serve_message(message) or ran
            progressed = progressed or ran
        return progressed

    def _handle_serve_message(self, message: object) -> bool:
        """Validate and dispatch one result message; True when it settled a
        ticket or advanced the exchange.

        A corrupted message is the same failure class as a poisoned
        envelope: dropped and counted, never allowed to crash the parent.
        """
        if not (isinstance(message, tuple) and len(message) in (3, 4)):
            self._c_poisoned.inc()
            return False
        tag, shard = message[0], message[1]
        if (
            not isinstance(shard, int)
            or isinstance(shard, bool)
            or not 0 <= shard < self._serve_shards
        ):
            self._c_poisoned.inc()
            return False
        if tag == "record" and len(message) == 3:
            envelope = _decode_envelope(message[2])
            if envelope is None:
                self._c_poisoned.inc()
                return False
            self._c_records_streamed.inc()
            self._o_envelopes.inc()
            self._serve_broadcast(envelope.record, origin=shard)
            return True
        if tag == "done_one" and len(message) == 4:
            ticket = message[2]
            if not isinstance(ticket, int) or isinstance(ticket, bool):
                self._c_poisoned.inc()
                return False
            return self._settle_serving(ticket, message[3])
        if tag == "bye" and len(message) == 3:
            return self._retire_serving_worker(shard, message[2])
        self._c_poisoned.inc()
        return False

    def _serve_broadcast(self, record: TuningRecord, origin: int) -> None:
        """Fold one shard's record into the exchange and, when it improved
        it, forward the surviving record to every other shard.

        Forward what ``apply()`` kept, not the incoming record: on a
        collision (e.g. with a faster caller-database record) the
        exchange's surviving record is the servable best.  Forwarding to
        in-parent runners goes through their inboxes — the next
        :meth:`_ShardRunner.round` injects and advances the checkpoint, so
        nothing echoes.
        """
        applied = self._serve_exchange.apply([record])
        if not applied:
            return
        winner = applied[0]
        self._c_records_applied.inc()
        wire = None
        for j in self._serve_workers:
            if j == origin or j in self._serve_byes:
                continue
            if wire is None:
                wire = RecordEnvelope(
                    record=winner, origin=origin, revision=self._serve_exchange.revision
                ).to_wire()
            try:
                self._serve_worker_inboxes[j].put(("sync", wire))
            except Exception:  # pragma: no cover - defensive (closed queue)
                pass
        for j, inbox in self._serve_inboxes.items():
            if j != origin:
                inbox.append(winner)

    def _settle_serving(self, ticket: int, outcome: object) -> bool:
        """Answer one ticket's parent future from its shard's ``done_one``
        ``outcome``.  Late reports for cancelled or already-failed-over
        tickets are discarded."""
        future = self._serve_futures.pop(ticket, None)
        self._serve_tickets.pop(ticket, None)
        if future is None or future.done():
            return False
        if isinstance(outcome, tuple) and len(outcome) == 2:
            kind, payload = outcome
            if kind == "ok" and isinstance(payload, TuningResult):
                future._set_result(payload)
                return True
            if kind == "err" and isinstance(payload, dict):
                future._set_exception(error_from_wire(payload))
                return True
        self._c_poisoned.inc()
        future._set_exception(RequestFailed("malformed completion report"))
        return True

    def _retire_serving_worker(self, shard: int, payload: object) -> bool:
        """Fold a graceful worker's final ``bye`` report (stats, metrics,
        full-database safety net) and mark its shard retired."""
        if shard in self._serve_byes or shard not in self._serve_workers:
            self._c_poisoned.inc()
            return False
        self._serve_byes[shard] = True
        self._o_workers_done.inc()
        if not isinstance(payload, dict):
            self._c_poisoned.inc()
            return True
        try:
            self._serve_exchange.apply(
                TuningRecord.from_dict(d) for d in payload.get("records", [])
            )
        except Exception:
            self._c_poisoned.inc()
        stats = payload.get("stats")
        if isinstance(stats, ServiceStats):
            self._absorb(stats)
        wire = payload.get("metrics")
        if isinstance(wire, dict):
            try:
                shipped = MetricsSnapshot.from_wire(wire)
                self._shard_metrics = self._shard_metrics.merged(shipped)
            except Exception:
                self._c_poisoned.inc()
        self._c_poisoned.inc(int(payload.get("poisoned", 0)))
        return True

    def _failover_serving_shard(self, shard: int) -> None:
        """A worker died: hand its unresolved tickets (and any future
        submits routed to it) to an in-parent runner whose private database
        starts as a copy of the exchange.  Records the worker streamed
        before dying are served, not re-tuned; the pool (and the daemon
        above) keeps serving throughout."""
        if shard in self._serve_runners:
            return
        process = self._serve_workers.pop(shard, None)
        if process is not None:
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
            process.join(timeout=1.0)
        self._c_worker_failures.inc()
        self._o_workers_failed.inc()
        database = TuningDatabase()
        database.apply(self._serve_exchange)
        runner = _ShardRunner(
            admit_window=self.admit_window, database=database, obs=self.obs
        )
        for ticket in sorted(
            t for t, (s, _) in self._serve_tickets.items() if s == shard
        ):
            future = self._serve_futures.get(ticket)
            if future is None or future.done():
                continue
            runner.enqueue(ticket, self._serve_tickets[ticket][1])
        self._serve_runners[shard] = runner
        self._serve_inboxes[shard] = []

    def cancel(
        self, request: TuningRequest, exc: Optional[BaseException] = None
    ) -> bool:
        """Serving-mode cancel: answer every unresolved future for
        ``request`` with ``exc`` (default
        :class:`~repro.service.errors.RequestCancelled`).

        In-parent shards cancel the underlying run through
        :meth:`TuningService.cancel`; for a process shard the cancel is
        parent-side — the worker may finish the run anyway, and its late
        report is discarded (:meth:`_settle_serving`).  Returns True when
        at least one future was answered.
        """
        if not self._serving:
            return False
        error = (
            exc
            if exc is not None
            else RequestCancelled(f"cancelled: {request.describe()}")
        )
        cancelled = False
        for ticket, (shard, ticketed) in list(self._serve_tickets.items()):
            if ticketed != request:
                continue
            future = self._serve_futures.get(ticket)
            runner = self._serve_runners.get(shard)
            if runner is not None:
                runner.pending = deque(
                    (p, r) for p, r in runner.pending if p != ticket
                )
                runner.futures.pop(ticket, None)
                runner.service.cancel(request, error)
            if future is not None and not future.done():
                future._set_exception(error)
                cancelled = True
            self._serve_futures.pop(ticket, None)
            self._serve_tickets.pop(ticket, None)
        return cancelled

    def stop(self, timeout: float = 30.0) -> None:
        """Leave serving mode gracefully.

        Process workers get a ``("stop",)`` sentinel, finish their in-flight
        work and report ``bye`` (folded into the pool's accounting and the
        exchange); workers that die instead fail over.  In-parent runners
        drain their backlogs and are absorbed.  Any future still unresolved
        afterwards is answered with
        :class:`~repro.service.errors.RequestCancelled` — drain first (pump
        :meth:`step` until idle, as the daemon's drain does) for a clean
        stop.  Idempotent; a stopped pool may :meth:`start` again.
        """
        if not self._serving:
            return

        def outstanding() -> List[int]:
            return [s for s in self._serve_workers if s not in self._serve_byes]

        for shard in outstanding():
            try:
                self._serve_worker_inboxes[shard].put(("stop",))
            except Exception:  # pragma: no cover - defensive
                pass

        idle_polls = max(1, int(timeout / _POLL_SECONDS))
        while outstanding() and idle_polls > 0:
            if not self._read_pipes(_POLL_SECONDS):
                idle_polls -= 1
        for shard in outstanding():
            self._failover_serving_shard(shard)
        # Drain failed-over / in-parent shards to completion.
        while self._step_runners():
            pass
        for runner in self._serve_runners.values():
            self._serve_exchange.apply(runner.service.database)
            self._absorb(runner.service.stats)
            # In-parent runners share self.obs, so their extras are already
            # in the parent registry — only the per-service accounting needs
            # merging here (process workers ship both in their bye).
            self._shard_metrics = self._shard_metrics.merged(
                runner.service.metrics_snapshot()
            )
        for future in list(self._serve_futures.values()):
            if not future.done():
                future._set_exception(
                    RequestCancelled("pool stopped while request in flight")
                )
        self._finish_serving()

    def terminate(self) -> None:
        """SIGKILL-style exit from serving mode: no drain, no sentinel —
        workers are terminated and unresolved futures fail.  Everything
        recovers through whatever journal sits above (the daemon's fault
        model)."""
        if not self._serving:
            return
        for process in self._serve_workers.values():
            if process.is_alive():
                process.terminate()
        for process in self._serve_workers.values():
            process.join(timeout=1.0)
        for future in list(self._serve_futures.values()):
            if not future.done():
                future._set_exception(RequestCancelled("pool terminated"))
        self._finish_serving()

    def _finish_serving(self) -> None:
        """Common serving teardown: settle bookkeeping, close channels."""
        for process in self._serve_workers.values():
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
        self._close_serve_channels()
        self._serve_futures.clear()
        self._serve_tickets.clear()
        self._serve_runners.clear()
        self._serve_inboxes.clear()
        self._serve_workers.clear()
        self._serve_byes.clear()
        self._serving = False

    def _close_serve_channels(self) -> None:
        for pipe in self._serve_pipes.values():
            pipe.close()
        for inbox in self._serve_worker_inboxes.values():
            try:
                inbox.close()
                inbox.cancel_join_thread()
            except Exception:  # pragma: no cover - defensive
                pass
        self._serve_pipes = {}
        self._serve_worker_inboxes = {}

    def describe(self) -> Dict[str, object]:
        """JSON-native status snapshot (folded into the daemon's
        ``describe`` op when the pool backs it)."""
        return {
            "kind": "TuningWorkerPool",
            "serving": self._serving,
            "mode": self._stats_mode,
            "num_workers": self.num_workers,
            "admit_window": self.admit_window,
            "in_flight": len(self._serve_futures),
            "stats": dataclasses.asdict(self.stats),
        }
