"""The concurrent tuning service: coalesce, schedule, batch, serve.

:class:`TuningService` accepts conv-tuning requests
(:class:`~repro.service.request.TuningRequest`: layer parameters + GPU +
algorithm + **search tuner** + budget) and answers each with a
:class:`~repro.service.futures.TuningFuture`.  Every tuner in the repository
— the ATE engine, the TVM-style engine and all four baseline searches — runs
as the same step-wise session
(:class:`~repro.core.autotune.session.TuningSession`), so one
service schedules heterogeneous algorithms side by side.  Three mechanisms
remove the redundancy a naive per-request loop would pay:

1. **Database serving** — a pruned request whose ``(params, GPU, algorithm)``
   triple is already covered by the shared
   :class:`~repro.core.autotune.database.TuningDatabase` (budget and
   measurement conditions included) is answered at submit time with zero
   measurements.  The database is tuner-agnostic best-known-configuration
   storage; records carry the producing tuner's name.
2. **Request coalescing** — identical requests (tuner and hyperparameters
   included in the key) that arrive while a matching run is in flight attach
   to it instead of starting their own: the service keeps one run per
   distinct request (the request *is* the key, see ``request.py``), and the
   run carries every future waiting on it, so N concurrent requests for the
   same search cost exactly one run.
3. **Cross-request measurement batching** — every scheduling round
   (:meth:`TuningService.step`) collects the next proposal batch of each
   *scheduled* tuning session, lowers each with its own
   :meth:`~repro.core.autotune.config.Measurer.prepare_batch`, and packs all
   slices that share a device and measurement conditions into one
   :meth:`~repro.gpusim.executor.GPUExecutor.run_batch_groups` call, keeping
   the vectorised executor's batches full even when individual requests
   propose small batches (a sequential SA chain proposes one configuration
   per round — packed with its neighbours it still rides full batches).

Which sessions are scheduled each round is a pluggable
:class:`~repro.service.policy.SchedulingPolicy` — uniform rounds (default),
budget-weighted fair share, or earliest-deadline-first — that controls
fairness and latency only, never trajectories.

Results are **bit-identical** to driving each request's tuner directly
(:meth:`~repro.service.request.TuningRequest.tune_direct`): sessions own all
randomness and consume measurements in proposal order, and the packed
executor call is element-wise (see ``GPUExecutor.run_batch_groups``).  For
duplicate (coalesced) requests the service mirrors the sequential
shared-database semantics: the primary future receives the full fresh
:class:`~repro.core.autotune.session.TuningResult`, and each coalesced
future is answered from the database record the run just stored (a
``from_cache`` single-trial result — exactly what a later sequential
``tune()`` against the shared database would have returned); duplicates of
runs that store nothing (unpruned requests) receive the full result.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.autotune.config import Measurer
from ..core.autotune.database import TuningDatabase, TuningRecord
from ..core.autotune.session import Tuner, TuningResult, TuningSession
from ..obs import (
    FILL_RATIO_BOUNDS,
    GROUP_COUNT_BOUNDS,
    LATENCY_BOUNDS,
    NULL_OBS,
    BATCH_SIZE_BOUNDS,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
)
from .errors import DeadlineExpired, RequestCancelled
from .futures import TuningFuture
from .policy import SchedulingPolicy, make_policy
from .request import TuningRequest

__all__ = ["ServiceStats", "TuningService"]


@dataclass
class ServiceStats:
    """Accounting of how the service's work was satisfied.

    ``measurements`` counts actual simulator executions across all finished
    runs — the coalescing tests assert that N identical requests leave this
    equal to a single direct run's count.

    Since the registry migration this dataclass is a *snapshot view*: the
    live counts are thread-safe :class:`~repro.obs.metrics.Counter`
    instruments on the service's accounting registry, and
    :attr:`TuningService.stats` materialises one consistent copy per read —
    mutating the returned object changes nothing in the service.
    """

    requests: int = 0
    coalesced: int = 0
    database_hits: int = 0
    tuning_runs: int = 0
    completed_runs: int = 0
    measurements: int = 0
    #: scheduling rounds the service has run (step() calls that found work).
    rounds: int = 0
    #: shared executor calls and how many lowered configs they carried.
    executor_calls: int = 0
    packed_configs: int = 0
    #: externally injected records (inject_records): how many arrived and how
    #: many actually improved the shared database (keep-better winners).
    records_injected: int = 0
    records_applied: int = 0

    def describe(self) -> str:
        return (
            f"ServiceStats[{self.requests} requests -> {self.tuning_runs} runs "
            f"({self.coalesced} coalesced, {self.database_hits} db hits), "
            f"{self.measurements} measurements over {self.executor_calls} "
            f"executor calls in {self.rounds} rounds]"
        )


@dataclass
class _ActiveRun:
    """One scheduled tuning run, its step-wise session and its futures.

    ``tuner`` is whatever the request named and only matters as the owner of
    the measurer the session's proposals are lowered with.  ``futures``
    holds every future waiting on the run: the first is the submission that
    started it, the rest coalesced onto it.
    """

    request: TuningRequest
    tuner: Tuner
    session: TuningSession
    futures: List[TuningFuture]

    @property
    def measurer(self) -> Measurer:
        return self.tuner.measurer


class TuningService:
    """Schedule many tuning requests over shared measurement batches.

    Thread-safe: ``submit`` may be called from any thread, concurrently with
    a driver thread running :meth:`drain`.  Scheduling rounds serialise with
    submissions under one lock, so a request submitted mid-round joins the
    next round.  :meth:`submit`, :meth:`step`, :meth:`wait`, :meth:`cancel`,
    :meth:`fleet_snapshot`, :meth:`describe`, :meth:`stop` and
    :meth:`terminate` are the serving contract the daemon drives, shared
    with :class:`~repro.service.pool.TuningWorkerPool`.

    ``policy`` picks which active runs propose each round (see
    :mod:`repro.service.policy`); pass an instance or a registry name
    (``"uniform"``, ``"fair_share"``, ``"edf"``).

    ``obs`` is an optional :class:`~repro.obs.Observability` bundle.  The
    accounting behind :attr:`stats` is always live (a private registry of
    thread-safe counters — that is what makes :attr:`stats` reads race-free);
    ``obs`` only adds the extras: packing histograms, per-policy pick
    latency, spans, and database/measurer/engine telemetry.  Observability
    is write-only — it never touches session RNG or database state, so
    trajectories stay bit-identical with it enabled or disabled.
    """

    def __init__(
        self,
        database: Optional[TuningDatabase] = None,
        policy: Union[str, SchedulingPolicy, None] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        #: shared across all requests; pruned-domain results are stored here
        #: and repeat requests are answered from it.
        self.database = database if database is not None else TuningDatabase()
        self.policy = make_policy(policy)
        self.obs = obs if obs is not None else NULL_OBS
        # Always-live accounting registry: one counter per ServiceStats
        # field, pre-bound so the scheduling hot paths pay one attribute
        # load + one locked increment each.
        self._metrics = MetricsRegistry()
        acc = self._metrics.scope("service")
        self._c_requests = acc.counter("requests")
        self._c_coalesced = acc.counter("coalesced")
        self._c_database_hits = acc.counter("database_hits")
        self._c_tuning_runs = acc.counter("tuning_runs")
        self._c_completed_runs = acc.counter("completed_runs")
        self._c_measurements = acc.counter("measurements")
        self._c_rounds = acc.counter("rounds")
        self._c_executor_calls = acc.counter("executor_calls")
        self._c_packed_configs = acc.counter("packed_configs")
        self._c_records_injected = acc.counter("records_injected")
        self._c_records_applied = acc.counter("records_applied")
        # Observability extras (null no-op instruments when obs is disabled).
        reg = self.obs.registry
        self._h_fill_ratio = reg.histogram("service.pack.fill_ratio", FILL_RATIO_BOUNDS)
        self._h_call_configs = reg.histogram(
            "service.pack.configs_per_call", BATCH_SIZE_BOUNDS
        )
        self._h_call_sessions = reg.histogram(
            "service.pack.sessions_per_call", GROUP_COUNT_BOUNDS
        )
        self._h_policy_select = reg.histogram(
            f"service.policy.{self.policy.name}.select_seconds", LATENCY_BOUNDS
        )
        self._tracer = self.obs.tracer
        self._clock = self.obs.clock
        if self.obs.enabled:
            self.database.attach_metrics(reg.scope("db"))
        #: the in-flight runs, one per distinct request, in submission order.
        self._runs: Dict[TuningRequest, _ActiveRun] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ServiceStats:
        """One consistent accounting snapshot (see :class:`ServiceStats`).

        Reads go through the registry's locked snapshot, so a caller reading
        stats while a scheduling round or a submitting thread mutates them
        sees a coherent point-in-time copy, never a torn read.
        """
        c = self._metrics.snapshot().counters
        return ServiceStats(
            requests=c.get("service.requests", 0),
            coalesced=c.get("service.coalesced", 0),
            database_hits=c.get("service.database_hits", 0),
            tuning_runs=c.get("service.tuning_runs", 0),
            completed_runs=c.get("service.completed_runs", 0),
            measurements=c.get("service.measurements", 0),
            rounds=c.get("service.rounds", 0),
            executor_calls=c.get("service.executor_calls", 0),
            packed_configs=c.get("service.packed_configs", 0),
            records_injected=c.get("service.records_injected", 0),
            records_applied=c.get("service.records_applied", 0),
        )

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Point-in-time snapshot of the service's accounting registry.

        The ``service.*``-named half of the telemetry; the observability
        extras live on ``self.obs``, and :meth:`fleet_snapshot` merges both.
        """
        return self._metrics.snapshot()

    def fleet_snapshot(self) -> MetricsSnapshot:
        """The service's accounting merged with its ``obs`` extras."""
        snapshot = self._metrics.snapshot()
        with self._lock:
            return snapshot.merged(self.obs.snapshot())

    @property
    def num_active(self) -> int:
        with self._lock:
            return len(self._runs)

    def in_flight(self, request: TuningRequest) -> bool:
        """Whether a run for ``request`` is in flight, so that submitting
        the request again would coalesce onto it."""
        with self._lock:
            return request in self._runs

    def submit(self, request: TuningRequest) -> TuningFuture:
        """Accept a request; returns immediately with a future.

        The request is answered from the database when covered, attached to
        an identical in-flight run when one exists, and scheduled as a new
        step-wise tuning session otherwise.

        A request whose ``deadline`` has already passed (measured against
        the service clock — a real clock only when one was injected at the
        edge) raises :class:`~repro.service.errors.DeadlineExpired` up
        front: it is never admitted only to be timed out later.
        """
        future = TuningFuture(request)
        with self._lock:
            if request.deadline is not None and request.deadline < self._clock.now():
                raise DeadlineExpired(
                    f"deadline {request.deadline} already passed at submit "
                    f"(now {self._clock.now()}); rejected up front, not admitted"
                )
            self._c_requests.inc()
            run = self._runs.get(request)
            if run is not None:
                future.coalesced = True
                run.futures.append(future)
                self._c_coalesced.inc()
                return future
            record = request.lookup(self.database)
            if record is not None:
                self._c_database_hits.inc()
                future.from_database = True
                future._set_result(record.as_result())
                return future
            # The session consults no database itself — lookups and stores
            # are the service's job, so an in-flight run is never pre-empted.
            # It is built before the run is registered: a request that cannot
            # start raises here and leaves no in-flight run for its
            # duplicates to coalesce onto.
            tuner, session = request.make_session()
            if self.obs.enabled:
                # Fleet-aggregated telemetry for the run's measurement and
                # search machinery; attached before the first proposal so
                # nothing is missed, and write-only so nothing is perturbed.
                run_tuner_attach = getattr(tuner, "attach_metrics", None)
                if run_tuner_attach is not None:
                    run_tuner_attach(self.obs.scope("engine"))
                tuner.measurer.attach_metrics(self.obs.scope("measurer"))
            self._runs[request] = _ActiveRun(
                request=request, tuner=tuner, session=session, futures=[future]
            )
            self._c_tuning_runs.inc()
        return future

    def inject_records(
        self, records: Sequence[TuningRecord]
    ) -> List[TuningRecord]:
        """Fold externally produced records into the shared database.

        The streaming worker pool calls this between scheduling rounds with
        records tuned by *other* shards.  The fold is a monotonic keep-better
        :meth:`~repro.core.autotune.database.TuningDatabase.apply`, and it
        cannot perturb any in-flight run: sessions never consult the
        database mid-run (lookups happen only at :meth:`submit` time and when
        :meth:`_finalize` answers coalesced futures), so running trajectories
        stay bit-identical to :meth:`~repro.service.request.TuningRequest.tune_direct`
        whatever arrives here — only *new* submits (and coalesced duplicates
        of runs finishing after the injection, matching the sequential
        shared-database semantics) are served from injected records.

        Returns the records that actually changed the database.
        """
        with self._lock:
            records = list(records)
            applied = self.database.apply(records)
            self._c_records_injected.inc(len(records))
            self._c_records_applied.inc(len(applied))
            return applied

    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Run one scheduling round; returns False once no work remains.

        A round asks the :attr:`policy` which active sessions to schedule,
        collects those sessions' next proposal batches, finalises the ones
        that are done, and executes everyone else's lowered slices grouped
        per ``(GPU, noise conditions)`` through single packed executor calls.
        """
        with self._lock:
            if not self._runs:
                return False
            self._c_rounds.inc()
            runs = list(self._runs.values())
            with self._tracer.span("service.step", active=len(runs)):
                # Phase 0: the policy picks this round's runs.  Deduplicate,
                # drop anything the policy invented, and never accept an empty
                # selection — a policy bug must not stall the service.
                active = {id(run): run for run in runs}
                selected: List[_ActiveRun] = []
                seen: set = set()
                select_start = self._clock.now()
                picked = self.policy.select(list(runs))
                self._h_policy_select.observe(self._clock.now() - select_start)
                for run in picked:
                    if id(run) in active and id(run) not in seen:
                        seen.add(id(run))
                        selected.append(run)
                if not selected:
                    selected = runs

                # Phase 1: collect proposals; finalise finished sessions.
                work: List[Tuple[_ActiveRun, list, object]] = []
                for run in selected:
                    try:
                        configs = run.session.propose()
                        if not configs:
                            self._finalize(run)
                            continue
                        prepared = run.measurer.prepare_batch(configs)
                    except Exception as exc:  # defensive: fail only this run
                        self._fail(run, exc)
                        continue
                    work.append((run, configs, prepared))

                # Phase 2: pack compatible slices into shared executor calls.
                groups: Dict[tuple, List[Tuple[_ActiveRun, list, object]]] = {}
                for item in work:
                    groups.setdefault(item[0].request.executor_group(), []).append(item)
                for items in groups.values():
                    to_run = [it for it in items if len(it[2]) > 0]
                    executions_for = dict.fromkeys(map(id, items), ())
                    if to_run:
                        executor = to_run[0][0].measurer.executor
                        batches = [it[2].batch for it in to_run]
                        grouped = executor.run_batch_groups(batches)
                        self._c_executor_calls.inc()
                        packed = sum(len(b) for b in batches)
                        self._c_packed_configs.inc(packed)
                        # Packing telemetry: how full the shared call was
                        # relative to its largest single slice (1.0 = no
                        # cross-request benefit, higher = better packing).
                        self._h_call_configs.observe(packed)
                        self._h_call_sessions.observe(len(to_run))
                        self._h_fill_ratio.observe(
                            packed / max(len(b) for b in batches)
                        )
                        for it, executions in zip(to_run, grouped):
                            executions_for[id(it)] = executions
                    # Phase 3: hand each session its own measurements back.
                    for it in items:
                        run, configs, prepared = it
                        try:
                            results = run.measurer.finish_batch(
                                prepared, executions_for[id(it)]
                            )
                            run.session.update(configs, results)
                        except Exception as exc:
                            self._fail(run, exc)
            return True

    def wait(self, timeout: float) -> None:
        """Return at once: the rounds are the work, so nothing is owed
        between busy :meth:`step` calls (the serving contract's pause, which
        a pool spends waiting for its workers)."""

    def cancel(
        self, request: TuningRequest, exc: Optional[BaseException] = None
    ) -> bool:
        """Cancel ``request``'s in-flight run.

        Every future attached to it (the primary and any coalesced
        duplicates) receives ``exc`` — default
        :class:`~repro.service.errors.RequestCancelled` — and the run's
        measurements-so-far are accounted exactly like a failed run.  The
        daemon's per-request timeouts cancel this way: a rid enters the
        backend once, so its run has that one waiter.

        Returns False when no active run matches ``request``.
        """
        with self._lock:
            run = self._runs.get(request)
            if run is None:
                return False
            if exc is None:
                exc = RequestCancelled(f"cancelled: {request.describe()}")
            self._fail(run, exc)
            return True

    def drain(self) -> None:
        """Run scheduling rounds until every submitted request is answered."""
        while self.step():
            pass

    def stop(self) -> None:
        """Graceful stop: finish every submitted request, as :meth:`drain`."""
        self.drain()

    def terminate(self) -> None:
        """Abrupt stop: fail every active run's futures with
        :class:`~repro.service.errors.RequestCancelled`."""
        with self._lock:
            for run in list(self._runs.values()):
                self._fail(run, RequestCancelled("service terminated"))

    def tune(self, requests: Sequence[TuningRequest]) -> List[TuningResult]:
        """Convenience: submit a workload, drain it, return results in order."""
        futures = [self.submit(r) for r in requests]
        self.drain()
        return [f.result() for f in futures]

    # ------------------------------------------------------------------ #
    def _finalize(self, run: _ActiveRun) -> None:
        """Store, answer and retire a finished run (lock held).

        The run is retired only after every future is answered, so that a
        failure partway through (a raising database, say) leaves it for
        :meth:`_fail` to answer the remaining futures with the exception.
        """
        result = run.session.result
        request = run.request
        stored = False
        if request.pruned and any(t.valid for t in result.trials):
            executor = run.measurer.executor
            self.database.put(
                TuningRecord.from_result(
                    result,
                    budget=request.max_measurements,
                    noise=executor.noise,
                    noise_seed=executor.seed,
                )
            )
            stored = True
        primary, *attached = run.futures
        primary._set_result(result)
        for future in attached:
            # Sequential shared-database semantics: a later identical
            # request would have been served the stored record.
            record = request.lookup(self.database) if stored else None
            if record is not None:
                future.from_database = True
                future._set_result(record.as_result())
            else:
                future._set_result(result)
        del self._runs[request]
        self._c_measurements.inc(run.measurer.num_measurements)
        self._c_completed_runs.inc()

    def _fail(self, run: _ActiveRun, exc: BaseException) -> None:
        """Propagate a run's failure to all of its futures and retire it
        (lock held).

        Also reached when :meth:`_finalize` itself raises (e.g. a failing
        user-supplied database), so it answers only the futures that are
        not answered yet.
        """
        self._c_completed_runs.inc()
        self._c_measurements.inc(run.measurer.num_measurements)
        self._runs.pop(run.request, None)
        for future in run.futures:
            if not future.done():
                future._set_exception(exc)

    def describe(self) -> Dict[str, object]:
        """JSON-native status snapshot (see the satellite redesign: the
        future daemon serves this over the wire; render it with
        :func:`repro.obs.format_describe` for humans)."""
        with self._lock:
            # num_active under the lock for a coherent pairing with the
            # stats snapshot (itself race-free: the property reads a locked
            # registry snapshot, satisfying reprolint REPRO201 by design).
            return {
                "kind": "TuningService",
                "active": self.num_active,
                "policy": self.policy.name,
                "stats": dataclasses.asdict(self.stats),
                "database": self.database.describe(),
            }
