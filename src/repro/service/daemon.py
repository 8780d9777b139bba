"""The always-on tuning daemon: durable, admission-controlled, crash-safe.

:class:`TuningDaemon` wraps a tuning **backend** — the in-process
:class:`~repro.service.scheduler.TuningService` (the scheduling/coalescing/
batching engine, the default) or the sharded streaming
:class:`~repro.service.pool.TuningWorkerPool` in its long-lived serving mode
(``backend="pool"``) — with the deployment-shape machinery a long-lived
server needs:

* **Durable promises** — every accepted request is written to a
  :class:`~repro.service.journal.RequestJournal` *before* it is
  acknowledged, and every state transition (``accepted -> running ->
  done(result)/failed(error)``) is journaled, so the daemon's promises
  survive SIGKILL.
* **Crash recovery** — on construction the daemon folds the journal:
  terminal entries are re-served straight from their journaled payloads
  (bit-identical results, **zero re-measurement**); in-flight entries are
  resubmitted to the backend, which the shared keep-better
  :class:`~repro.core.autotune.database.TuningDatabase` makes idempotent —
  a replayed run converges on the same final database records.
* **Admission control** — a bounded in-flight queue plus an optional
  token-bucket rate limit; overload answers a typed ``RETRY_AFTER``
  rejection immediately instead of queueing unboundedly, so a submit never
  hangs.  Requests whose ``deadline`` has already passed on the daemon's
  clock are rejected up front (``DEADLINE_EXPIRED``), never admitted and
  timed out later; a replayed request past its deadline fails the same way.
* **Per-request timeouts** — an expired request's run is cancelled cleanly
  through the backend and journaled ``failed(TIMEOUT)``.
* **Graceful drain** — stop admissions, finish in-flight work, stop the
  backend, snapshot the journal and flush the database, so the next start
  replays a short tail.

The daemon is transport-agnostic: :meth:`handle` serves decoded wire ops
and :meth:`tick` advances scheduling, so the same object runs under the
socket server or the deterministic in-process ``FakeTransport`` (see
:mod:`repro.service.frontend`).  Time comes from an injected
:class:`~repro.obs.Clock` — ``FakeClock`` in tests, ``MonotonicClock`` at
real edges — never from wall-clock reads.

**Backend contract**: both backends serve the same calls — ``submit``,
``step``, ``cancel``, ``fleet_snapshot``, ``describe``, ``stop`` (finish
submitted work) and ``terminate`` (fail it) — so the daemon resolves its
backend once, at construction, and then drives it without knowing which one
it is.  The journal fault model is therefore identical under either:
accepted-before-ack, terminal entries re-serve bit-identically with zero
re-measurement, in-flight entries resubmit idempotently on restart.  The
pool adds its worker fault model underneath: a SIGKILLed *worker* degrades
to an in-parent shard runner while the daemon stays up.  Every backend call
is counted in ``daemon.backend.*`` (``submits`` / ``steps`` / ``cancels``),
folded with the backend's telemetry in :meth:`TuningDaemon.fleet_snapshot`.

Telemetry follows the service's split: the counters behind
:attr:`TuningDaemon.stats` live on an always-on private registry
(``daemon.accepted`` / ``rejected_overload`` / ``rejected_deadline`` /
``rejected_draining`` / ``recovered`` / ``replayed`` / ``completed`` /
``failed`` / ``timeouts`` and the ``daemon.queue_depth`` gauge); the
``obs`` bundle adds the ``daemon.request_latency_seconds`` histogram and
everything the wrapped backend exports.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..core.autotune.database import TuningDatabase
from ..obs import (
    LATENCY_BOUNDS,
    NULL_OBS,
    Clock,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
)
from .errors import (
    BadRequest,
    DaemonDraining,
    DeadlineExpired,
    NotReady,
    Overloaded,
    RequestError,
    RequestFailed,
    RequestTimeout,
    UnknownRequest,
    error_from_wire,
)
from .frontend import PROTOCOL_VERSION
from .futures import TuningFuture
from .journal import (
    RequestJournal,
    request_from_wire,
    request_id,
    request_to_wire,
    result_to_wire,
)
from .policy import SchedulingPolicy
from .pool import TuningWorkerPool
from .request import TuningRequest
from .scheduler import TuningService

__all__ = ["DaemonStats", "TuningDaemon"]


@dataclass
class DaemonStats:
    """Accounting snapshot of one daemon (see :attr:`TuningDaemon.stats`).

    Like :class:`~repro.service.scheduler.ServiceStats`, a point-in-time
    *view*: the live counts are thread-safe registry counters and each read
    materialises one consistent copy.
    """

    accepted: int = 0
    rejected_overload: int = 0
    rejected_deadline: int = 0
    rejected_draining: int = 0
    #: journal entries folded at the last recovery (terminal + in-flight).
    recovered: int = 0
    #: in-flight journal entries resubmitted to the service at recovery.
    replayed: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0

    def describe(self) -> str:
        rejected = (
            self.rejected_overload + self.rejected_deadline + self.rejected_draining
        )
        return (
            f"DaemonStats[{self.accepted} accepted ({rejected} rejected), "
            f"{self.completed} done / {self.failed} failed "
            f"({self.timeouts} timeouts), {self.replayed} replayed of "
            f"{self.recovered} recovered]"
        )


class TuningDaemon:
    """Long-lived tuning server over a durable request journal.

    Thread-safe: :meth:`handle` may be called from any number of connection
    threads concurrently with a pump thread running :meth:`tick`.

    ``clock`` defaults to ``obs.clock`` (the null clock when observability
    is off), keeping the daemon deterministic by construction; pass a real
    ``MonotonicClock`` at deployment edges to arm rate limiting, timeouts
    and latency telemetry, or a ``FakeClock`` in tests.  ``rate_limit`` is
    tokens (requests) per clock second, 0 = unlimited; ``burst`` is the
    bucket depth.  ``max_active`` bounds in-flight (accepted, unfinished)
    requests.  ``default_timeout`` applies to submits that do not carry
    their own ``timeout``.

    ``backend`` picks the engine behind the journal: ``"service"`` (default)
    is one in-process :class:`TuningService`; ``"pool"`` builds a
    :class:`~repro.service.pool.TuningWorkerPool` and runs it in serving
    mode over the daemon's shared database; a ready-made
    ``TuningWorkerPool`` instance is adopted as-is (the daemon starts and
    owns its serving session — configure workers/durability on the pool).
    Either way it becomes :attr:`backend`.
    """

    def __init__(
        self,
        journal_path: Union[str, os.PathLike],
        *,
        backend: Union[str, TuningWorkerPool] = "service",
        database: Optional[TuningDatabase] = None,
        policy: Union[str, SchedulingPolicy, None] = None,
        obs: Optional[Observability] = None,
        clock: Optional[Clock] = None,
        max_active: int = 64,
        rate_limit: float = 0.0,
        burst: int = 16,
        default_timeout: Optional[float] = None,
        fsync_journal: bool = False,
        snapshot_min_entries: int = 4096,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        if rate_limit < 0.0 or burst < 1:
            raise ValueError("rate_limit must be >= 0 and burst >= 1")
        self.obs = obs if obs is not None else NULL_OBS
        self.database = database if database is not None else TuningDatabase()
        if backend == "pool":
            backend = TuningWorkerPool(policy=policy, obs=self.obs)
        if isinstance(backend, TuningWorkerPool):
            backend.start(database=self.database)
            self.backend_kind = "pool"
        elif backend == "service":
            backend = TuningService(database=self.database, policy=policy, obs=self.obs)
            self.backend_kind = "service"
        else:
            raise ValueError(
                f"backend must be 'service', 'pool' or a TuningWorkerPool, "
                f"got {backend!r}"
            )
        self.backend: Union[TuningService, TuningWorkerPool] = backend
        self.journal = RequestJournal(
            journal_path,
            fsync_appends=fsync_journal,
            snapshot_min_entries=snapshot_min_entries,
        )
        self.max_active = int(max_active)
        self.rate_limit = float(rate_limit)
        self.burst = int(burst)
        self.default_timeout = default_timeout
        # Always-live accounting registry (the DaemonStats source) plus the
        # obs extras; mirrors TuningService's split.
        self._metrics = MetricsRegistry()
        acc = self._metrics.scope("daemon")
        self._c_accepted = acc.counter("accepted")
        self._c_rejected_overload = acc.counter("rejected_overload")
        self._c_rejected_deadline = acc.counter("rejected_deadline")
        self._c_rejected_draining = acc.counter("rejected_draining")
        self._c_recovered = acc.counter("recovered")
        self._c_replayed = acc.counter("replayed")
        self._c_completed = acc.counter("completed")
        self._c_failed = acc.counter("failed")
        self._c_timeouts = acc.counter("timeouts")
        self._g_queue_depth = acc.gauge("queue_depth")
        bk = self._metrics.scope("daemon.backend")
        self._c_b_submits = bk.counter("submits")
        self._c_b_steps = bk.counter("steps")
        self._c_b_cancels = bk.counter("cancels")
        self._h_latency = self.obs.registry.histogram(
            "daemon.request_latency_seconds", LATENCY_BOUNDS
        )
        self._clock = clock if clock is not None else self.obs.clock
        self._futures: Dict[str, TuningFuture] = {}
        self._requests: Dict[str, TuningRequest] = {}
        self._expiry: Dict[str, float] = {}
        self._accepted_at: Dict[str, float] = {}
        self._draining = False
        self._tokens = float(self.burst)
        self._last_refill = self._clock.now()
        self._lock = threading.RLock()
        with self._lock:
            self._recover_locked()

    # -- accounting ------------------------------------------------------ #
    @property
    def stats(self) -> DaemonStats:
        """One consistent accounting snapshot (never a torn read)."""
        c = self._metrics.snapshot().counters
        return DaemonStats(
            accepted=c.get("daemon.accepted", 0),
            rejected_overload=c.get("daemon.rejected_overload", 0),
            rejected_deadline=c.get("daemon.rejected_deadline", 0),
            rejected_draining=c.get("daemon.rejected_draining", 0),
            recovered=c.get("daemon.recovered", 0),
            replayed=c.get("daemon.replayed", 0),
            completed=c.get("daemon.completed", 0),
            failed=c.get("daemon.failed", 0),
            timeouts=c.get("daemon.timeouts", 0),
        )

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The ``daemon.*`` half of the telemetry; the obs extras (latency
        histogram, service/db instruments) snapshot via ``self.obs``."""
        return self._metrics.snapshot()

    def fleet_snapshot(self) -> MetricsSnapshot:
        """One merged snapshot of the whole serving stack: the daemon's
        always-on counters (including ``daemon.backend.*``) folded with the
        backend's :meth:`fleet_snapshot`, which already carries the shared
        ``obs`` registry — so each instrument is counted once."""
        snapshot = self._metrics.snapshot()
        with self._lock:
            return snapshot.merged(self.backend.fleet_snapshot())

    def _check_deadline(self, request: TuningRequest, now: float) -> None:
        """Raise :class:`DeadlineExpired` when ``request``'s deadline passed
        before ``now`` on the daemon's clock: at submit and at replay."""
        if request.deadline is not None and request.deadline < now:
            raise DeadlineExpired(
                f"deadline {request.deadline} already passed at submit "
                f"(now {now}); rejected up front, not admitted"
            )

    @property
    def queue_depth(self) -> int:
        """In-flight (accepted, unfinished) requests."""
        with self._lock:
            return len(self._futures)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- recovery -------------------------------------------------------- #
    def _recover_locked(self) -> None:
        """(lock held) Fold the journal back into serving state.

        Terminal entries stay journal-served (their results re-serve with
        zero measurements); in-flight entries — promises made before the
        crash — are resubmitted to the backend.  The shared database makes
        the replay idempotent: a run that had already stored its record
        before the crash is answered from the database at resubmit, and one
        that had not converges on the same record via keep-better.
        """
        for entry in self.journal.states().values():
            self._c_recovered.inc()
            if entry.terminal:
                continue
            try:
                request = request_from_wire(entry.request)
            except Exception as exc:
                self.journal.fail(
                    entry.rid, BadRequest(f"unreplayable request: {exc}").to_wire()
                )
                self._c_failed.inc()
                continue
            self.journal.mark_running(entry.rid)
            try:
                self._check_deadline(request, self._clock.now())
                self._c_b_submits.inc()
                future = self.backend.submit(request)
            except RequestError as err:
                self.journal.fail(entry.rid, err.to_wire())
                self._c_failed.inc()
                continue
            self._futures[entry.rid] = future
            self._requests[entry.rid] = request
            self._accepted_at[entry.rid] = self._clock.now()
            if self.default_timeout is not None:
                self._expiry[entry.rid] = self._clock.now() + float(
                    self.default_timeout
                )
            self._c_replayed.inc()
        self._finalize_done_locked()
        self._g_queue_depth.set(len(self._futures))

    # -- wire dispatch --------------------------------------------------- #
    def handle(self, op: Dict[str, object]) -> Dict[str, object]:
        """Serve one decoded wire op; always returns a reply dict.

        Typed :class:`~repro.service.errors.RequestError` rejections become
        ``{"ok": false, "error": {...}}`` replies — the daemon never raises
        at a transport and never leaves an op unanswered.
        """
        try:
            if not isinstance(op, dict):
                raise BadRequest(f"op is {type(op).__name__}, expected an object")
            kind = op.get("op")
            if kind == "ping":
                return {"ok": True, "pong": True, "protocol": PROTOCOL_VERSION}
            if kind == "describe":
                return {"ok": True, "daemon": self.describe()}
            if kind == "submit":
                return self._op_submit(op)
            if kind == "status":
                return self._op_status(op)
            if kind == "result":
                return self._op_result(op)
            if kind == "drain":
                return {"ok": True, **self.drain()}
            raise BadRequest(f"unknown op {kind!r}")
        except RequestError as error:
            return {"ok": False, "error": error.to_wire()}

    def _op_submit(self, op: Dict[str, object]) -> Dict[str, object]:
        try:
            request = request_from_wire(dict(op["request"]))
        except Exception as exc:
            raise BadRequest(f"malformed tuning request: {exc}") from exc
        timeout = op.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0.0:
                raise BadRequest(f"timeout must be > 0, got {timeout}")
        rid = self.submit(request, timeout=timeout)
        with self._lock:
            entry = self.journal.get(rid)
            state = entry.status if entry is not None else "accepted"
        return {"ok": True, "rid": rid, "state": state}

    def _op_status(self, op: Dict[str, object]) -> Dict[str, object]:
        rid = str(op.get("rid", ""))
        with self._lock:
            entry = self.journal.get(rid)
            if entry is None:
                raise UnknownRequest(f"no journaled request {rid!r}")
            reply: Dict[str, object] = {
                "ok": True,
                "rid": rid,
                "state": entry.status,
                "queue_depth": len(self._futures),
            }
            if entry.error is not None:
                reply["error"] = entry.error
            return reply

    def _op_result(self, op: Dict[str, object]) -> Dict[str, object]:
        rid = str(op.get("rid", ""))
        with self._lock:
            self._finalize_done_locked()
            entry = self.journal.get(rid)
            if entry is None:
                raise UnknownRequest(f"no journaled request {rid!r}")
            if entry.status == "done":
                return {"ok": True, "rid": rid, "state": "done", "result": entry.result}
            if entry.status == "failed":
                raise _error_from_entry(entry.error)
            raise NotReady(
                f"request {rid} is {entry.status}; poll again", retry_after=0.01
            )

    # -- the native API (what the wire ops call) ------------------------- #
    def submit(
        self, request: TuningRequest, *, timeout: Optional[float] = None
    ) -> str:
        """Admit, durably journal, and start one request; returns its rid.

        Raises the typed rejections documented in the module docstring;
        acknowledgement (returning) strictly follows the journal append, so
        an acknowledged request is always recoverable.
        """
        rid = request_id(request)
        with self._lock:
            if timeout is None:
                timeout = self.default_timeout
            known = self.journal.get(rid)
            if known is not None:
                # Idempotent resubmit: the journal already holds this
                # promise (retried submit, or a restart re-serve) — no
                # re-admission, no re-measurement, same rid.  ``deadline``
                # is deliberately excluded from the rid digest (see
                # journal.request_id), so a retry with a fresh deadline or
                # timeout still lands here — but the retry's ``timeout``
                # must not be silently dropped: the effective expiry is the
                # *min* of the journaled promise's expiry and the retry's.
                # A promise can only ever tighten by being asked again,
                # never get laxer (a retried shorter timeout wins; a longer
                # one cannot resurrect an almost-expired run).
                if timeout is not None and not known.terminal and rid in self._futures:
                    retried = self._clock.now() + float(timeout)
                    current = self._expiry.get(rid)
                    self._expiry[rid] = (
                        retried if current is None else min(current, retried)
                    )
                return rid
            if self._draining:
                self._c_rejected_draining.inc()
                raise DaemonDraining("daemon is draining; submit elsewhere")
            now = self._clock.now()
            try:
                self._check_deadline(request, now)
            except DeadlineExpired:
                self._c_rejected_deadline.inc()
                raise
            if len(self._futures) >= self.max_active:
                self._c_rejected_overload.inc()
                raise Overloaded(
                    f"queue full ({len(self._futures)}/{self.max_active} in flight)",
                    retry_after=0.1,
                )
            if not self._take_token_locked(now):
                self._c_rejected_overload.inc()
                raise Overloaded(
                    f"rate limited ({self.rate_limit}/s, burst {self.burst})",
                    retry_after=(1.0 - self._tokens) / self.rate_limit,
                )
            # Durability point: the accept line is on disk (fsync'd when
            # configured) before the submit is acknowledged.
            self.journal.accept(rid, request_to_wire(request))
            try:
                self._c_b_submits.inc()
                future = self.backend.submit(request)
            except RequestError as err:
                self.journal.fail(rid, err.to_wire())
                self._c_failed.inc()
                raise
            except Exception as exc:
                err = RequestFailed(f"submit failed: {exc}")
                self.journal.fail(rid, err.to_wire())
                self._c_failed.inc()
                raise err from exc
            self.journal.mark_running(rid)
            self._futures[rid] = future
            self._requests[rid] = request
            self._accepted_at[rid] = now
            if timeout is not None:
                self._expiry[rid] = now + float(timeout)
            self._c_accepted.inc()
            # Database-served submits settle immediately: journal the
            # result now so even an instant crash re-serves it.
            self._finalize_done_locked()
            self._g_queue_depth.set(len(self._futures))
            return rid

    def _take_token_locked(self, now: float) -> bool:
        """(lock held) Token-bucket admission; True when a token was taken.

        Refills from the injected clock, so a null clock (no real time)
        with ``rate_limit=0`` — the default — never throttles, and tests
        drive refill deterministically by advancing a ``FakeClock``.

        The refill delta is clamped at zero: a clock that steps backwards
        (a restart handed a different clock epoch, a misbehaving injected
        clock) must never *subtract* tokens, and the refill watermark keeps
        the max-seen reading so the backwards excursion is not re-credited
        as elapsed time when the clock recovers."""
        if self.rate_limit <= 0.0:
            return True
        self._tokens = min(
            float(self.burst),
            self._tokens + max(0.0, now - self._last_refill) * self.rate_limit,
        )
        self._last_refill = max(self._last_refill, now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def status(self, rid: str) -> Dict[str, object]:
        return self._op_status({"op": "status", "rid": rid})

    def result(self, rid: str) -> Dict[str, object]:
        """The journaled result wire payload for a done request (raises the
        journaled typed error for failed, ``NotReady`` for in-flight)."""
        reply = self._op_result({"op": "result", "rid": rid})
        return dict(reply["result"])

    # -- progress -------------------------------------------------------- #
    def tick(self) -> bool:
        """Advance the daemon one round: expire timeouts, run one
        scheduling round, journal newly settled requests.  Returns True
        while in-flight work remains."""
        with self._lock:
            self._expire_timeouts_locked()
            self._c_b_steps.inc()
            progressed = self.backend.step()
            self._finalize_done_locked()
            self._g_queue_depth.set(len(self._futures))
            return progressed or bool(self._futures)

    def run_until_idle(self, max_ticks: int = 1_000_000) -> int:
        """Tick until no in-flight work remains; returns ticks run."""
        ticks = 0
        while self.tick():
            ticks += 1
            if ticks >= max_ticks:
                break
        return ticks

    def _expire_timeouts_locked(self) -> None:
        """(lock held) Cancel runs whose per-request timeout elapsed.

        Cancellation answers the future with :class:`RequestTimeout`;
        :meth:`_finalize_done_locked` then journals ``failed(TIMEOUT)``.
        The daemon is the run's only submitter (identical requests share a
        rid, which enters the backend once), so cancelling the whole run
        strands nobody else."""
        now = self._clock.now()
        expired = [rid for rid, at in self._expiry.items() if at <= now]
        for rid in expired:
            del self._expiry[rid]
            future = self._futures.get(rid)
            if future is None or future.done():
                continue
            timeout_err = RequestTimeout(f"request {rid} timed out at {now}")
            if self.backend.cancel(self._requests[rid], timeout_err):
                self._c_b_cancels.inc()
                self._c_timeouts.inc()

    def _finalize_done_locked(self) -> None:
        """(lock held) Journal terminal states for settled futures.

        The journal write is the serving handoff: once ``done(result)`` /
        ``failed(error)`` is on disk the in-memory future is dropped and
        every later (or post-restart) ``result`` op is answered straight
        from the journal.  A write that raises keeps the future, so the
        answer is never dropped before it is journaled."""
        settled = [rid for rid, future in self._futures.items() if future.done()]
        now = self._clock.now()
        for rid in settled:
            try:
                result = self._futures[rid].result(timeout=0)
            except Exception as exc:
                err = exc if isinstance(exc, RequestError) else RequestFailed(str(exc))
                self.journal.fail(rid, err.to_wire())
                self._c_failed.inc()
            else:
                self.journal.complete(rid, result_to_wire(result))
                self._c_completed.inc()
            del self._futures[rid]
            self._requests.pop(rid, None)
            self._expiry.pop(rid, None)
            accepted_at = self._accepted_at.pop(rid, None)
            if accepted_at is not None:
                self._h_latency.observe(now - accepted_at)

    # -- lifecycle ------------------------------------------------------- #
    def drain(self) -> Dict[str, object]:
        """Graceful drain: stop admissions, finish in-flight work, stop the
        backend (a pool's workers drain, compact and report), snapshot the
        journal, flush the database.  Returns a summary; the daemon keeps
        serving ``status``/``result`` ops afterwards."""
        with self._lock:
            self._draining = True
        ticks = self.run_until_idle()
        with self._lock:
            self.backend.stop()
            self.journal.snapshot()
            if self.database.path is not None:
                self.database.save()
            return {
                "drained": True,
                "ticks": ticks,
                "pending": len(self._futures),
                "journal_entries": len(self.journal),
            }

    def kill(self) -> None:
        """Simulate SIGKILL (tests/demos): drop file handles with no drain,
        no snapshot, no flush beyond the journal's per-append flush — a
        killed and a gracefully closed daemon recover through the identical
        journal path."""
        self.close()

    def close(self) -> None:
        """Release file handles without draining (idempotent).  The backend
        is terminated SIGKILL-style — no worker drain, no shard compaction
        — so a killed and a closed daemon recover identically."""
        with self._lock:
            self.backend.terminate()
            self.journal.close()
            self.database.close()

    def describe(self) -> Dict[str, object]:
        """JSON-native status snapshot (served by the ``describe`` op)."""
        with self._lock:
            return {
                "kind": "TuningDaemon",
                "protocol": PROTOCOL_VERSION,
                "draining": self._draining,
                "queue_depth": len(self._futures),
                "admission": {
                    "max_active": self.max_active,
                    "rate_limit": self.rate_limit,
                    "burst": self.burst,
                    "default_timeout": self.default_timeout,
                },
                "stats": dataclasses.asdict(self.stats),
                "journal": self.journal.describe(),
                "backend": self.backend_kind,
                self.backend_kind: self.backend.describe(),
            }


def _error_from_entry(error_wire: Optional[Dict[str, object]]) -> RequestError:
    return error_from_wire(error_wire if error_wire is not None else {})
