"""Persistent tuning database: share tuned configurations across layers/runs.

Networks repeat convolution shapes heavily (every ResNet stage re-uses the
same 3x3 layer many times, and ResNet-18/34 share most shapes outright), and
the paper's tuner spends essentially all of its time measuring batches of
configurations.  The :class:`TuningDatabase` removes the repeated work: the
best configuration found for a ``(ConvParams, GPUSpec, algorithm)`` triple is
recorded once and every later tuning request for the same triple — in the
same process or after a persistence round trip — is answered from the
database instead of re-running the search.

The database itself is a thin coordination façade: all state lives in one
:class:`~repro.core.autotune.store.LogStore` (see ``store.py``), in memory
when the database has no path, and otherwise in an append-only log at the
path, with compaction and crash recovery, so every put is on disk as soon
as it is made.  A whole-file JSON map is only an import and export format
(:meth:`load`, ``save(path)``); a map found at the database's own path is
converted to a log in place.  The façade adds the request-level semantics:
budget/conditions-aware :meth:`lookup`, hit/miss accounting, and the
:meth:`put` / :meth:`apply` write path.

The :class:`~repro.core.autotune.engine.AutoTuningEngine` consults an attached
database at the start of :meth:`~repro.core.autotune.engine.AutoTuningEngine.tune`
and stores its result when finished; the end-to-end model runner
(:class:`~repro.nets.runner.ModelRunner`) attaches one database across all
layers of all models it times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from typing import Dict, Iterable, List, Optional, Union

from ...conv.tensor import ConvParams
from ...gpusim.spec import GPUSpec
from ...obs.metrics import NULL_COUNTER, NULL_GAUGE, Counter
from .store import (
    LogStore,
    TuningDatabaseError,
    TuningRecord,
    _gpu_name,
    _params_key,
    read_map_file,
    write_map_file,
)

__all__ = [
    "RecordEnvelope",
    "TuningDatabase",
    "TuningDatabaseError",
    "TuningRecord",
    "default_database_path",
]

#: environment variable overriding the default on-disk database location.
DATABASE_ENV_VAR = "REPRO_TUNING_DB"


def default_database_path() -> str:
    """The default on-disk database location.

    ``$REPRO_TUNING_DB`` when set, otherwise ``~/.cache/repro-tuning.json``
    (honouring ``$XDG_CACHE_HOME``).
    """
    # reprolint: disable=REPRO602 - documented config-time path resolution
    override = os.environ.get(DATABASE_ENV_VAR)
    if override:
        return os.path.expanduser(override)
    # reprolint: disable=REPRO602 - XDG convention, resolved once at open time
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(cache_home, "repro-tuning.json")


#: wire-format version of :class:`RecordEnvelope`.
_ENVELOPE_VERSION = 1


@dataclasses.dataclass(frozen=True)
class RecordEnvelope:
    """Serializable wrapper for one record travelling between processes.

    The streaming worker pool exchanges records over multiprocessing queues;
    the envelope pins the wire format (a plain JSON-native dict, so it works
    over any transport) and carries provenance: ``origin`` is the sending
    shard index (``-1`` = the parent) and ``revision`` the sender database's
    revision when the record was captured.  :meth:`from_wire` validates
    strictly and raises :class:`TuningDatabaseError` on anything malformed —
    a poisoned envelope must never reach :meth:`TuningDatabase.put`, where a
    NaN time would corrupt every later keep-better comparison.
    """

    record: TuningRecord
    origin: int = -1
    revision: int = 0

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": _ENVELOPE_VERSION,
            "origin": self.origin,
            "revision": self.revision,
            "record": self.record.to_dict(),
        }

    @classmethod
    def from_wire(cls, payload: object) -> "RecordEnvelope":
        if not isinstance(payload, dict):
            raise TuningDatabaseError(
                f"record envelope must be a dict, got {type(payload).__name__}"
            )
        if payload.get("v") != _ENVELOPE_VERSION:
            raise TuningDatabaseError(
                f"unsupported record-envelope version {payload.get('v')!r}"
            )
        try:
            origin = int(payload["origin"])
            revision = int(payload["revision"])
            record = TuningRecord.from_dict(payload["record"])
        except TuningDatabaseError:
            raise
        except Exception as exc:
            raise TuningDatabaseError(f"malformed record envelope: {exc}") from exc
        if not math.isfinite(record.time_seconds) or record.time_seconds <= 0:
            raise TuningDatabaseError(
                f"record envelope carries invalid time {record.time_seconds!r}"
            )
        if not math.isfinite(record.gflops) or record.gflops < 0:
            raise TuningDatabaseError(
                f"record envelope carries invalid gflops {record.gflops!r}"
            )
        return cls(record=record, origin=origin, revision=revision)


class TuningDatabase:
    """Keep-better record map over one :class:`LogStore`.

    ``hits``/``misses`` count :meth:`lookup` outcomes so callers (tests, the
    model runner) can verify that repeated layers reuse tuning work instead
    of re-measuring.

    The façade holds no state of its own beyond the hit/miss counters: the
    record map, revision counter and change log live in the store, whose
    internal lock makes every write safe to share between a
    :class:`~repro.service.TuningService` driver thread and submitting
    threads.  Reads (:meth:`lookup`, :meth:`contains`) go through the
    store's lock-free read-copy hot tier, so serving never contends with
    writers.  :meth:`apply` is the single documented write path for record
    batches; :meth:`put` is its one-record primitive.

    Without a ``path`` the records live in memory only.  With one, the
    database opens the record log there (creating it when missing, and
    converting a JSON map in place), and every effective put is appended
    to it.
    """

    def __init__(
        self,
        records: Iterable[TuningRecord] = (),
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        self._store = LogStore(path)
        self._hits = Counter("db.serve_hits")
        self._misses = Counter("db.serve_misses")
        # Telemetry mirrors (null no-ops until attach_metrics binds real
        # ones); the database sits in the REPRO601 no-wall-clock scope, so
        # only counts and levels are recorded.
        self._m_puts = NULL_COUNTER
        self._m_puts_effective = NULL_COUNTER
        self._m_serve_hits = NULL_COUNTER
        self._m_serve_misses = NULL_COUNTER
        self._m_revision = NULL_GAUGE
        for record in records:
            self.put(record)

    @property
    def store(self) -> LogStore:
        """The record store this façade coordinates (read-only)."""
        return self._store

    @property
    def path(self) -> Optional[str]:
        """The record log's path (None for an in-memory database); read-only."""
        return self._store.path

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def attach_metrics(self, metrics) -> None:
        """Bind database telemetry to a metrics scope (see ``repro.obs``).

        Records ``puts_total`` vs ``puts_effective`` (keep-better inserts
        that actually changed a slot), ``serve_hits``/``serve_misses``
        (lookup outcomes) and the ``revision`` growth gauge, and wires the
        store under the nested ``store`` scope (``db.store.*``: appends,
        compactions, recoveries — see :meth:`LogStore.attach_metrics`).
        Observability never alters database state: instruments are written
        on the same code paths that already mutate the map, nothing more.
        """
        self._m_puts = metrics.counter("puts_total")
        self._m_puts_effective = metrics.counter("puts_effective")
        self._m_serve_hits = metrics.counter("serve_hits")
        self._m_serve_misses = metrics.counter("serve_misses")
        self._m_revision = metrics.gauge("revision")
        self._store.attach_metrics(metrics.scope("store"))

    # -- construction at the edges --------------------------------------- #
    @classmethod
    def default(cls) -> "TuningDatabase":
        """Open the default on-disk database (see :func:`default_database_path`).

        Opens the record log there, creating it when the file is missing
        and converting a JSON map (what earlier builds saved) in place; the
        returned database appends every effective put to it.

        Error handling depends on who chose the location.  When
        ``$REPRO_TUNING_DB`` names the path, the caller asked for *that*
        database — a file that does not open (unreadable, truncated, not
        writable, or under a path that cannot hold it) raises
        :class:`TuningDatabaseError` and is left byte-identical, instead of
        tuning silently restarting from an empty database.  The implicit
        cache-directory default stays lenient: a cache file that does not
        open is replaced by an empty log.
        """
        path = default_database_path()
        # reprolint: disable=REPRO602 - same config-time read as default_database_path
        explicit = bool(os.environ.get(DATABASE_ENV_VAR))
        if explicit and os.path.isfile(path) and not os.access(path, os.W_OK):
            # Checked before opening: converting a map replaces the file.
            raise TuningDatabaseError(
                f"${DATABASE_ENV_VAR} points at {path!r} which is not "
                "writable; tuning results could never be persisted back"
            )
        try:
            return cls(path=path)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            if explicit:
                raise TuningDatabaseError(
                    f"${DATABASE_ENV_VAR} points at {path!r} but it cannot be "
                    f"opened ({exc}); fix or remove the file rather than "
                    "letting tuning silently restart from an empty database"
                ) from exc
        # Nobody named the implicit cache file: start it over as an empty log.
        for stale in (path, path + ".snap"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
        return cls(path=path)

    # -- core map ------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._store)

    def records(self) -> List[TuningRecord]:
        return self._store.scan()

    def put(self, record: TuningRecord) -> TuningRecord:
        """Insert a record; the faster one wins among same-conditions records.

        Times measured under different executor conditions are not
        comparable, so each conditions set keeps its own record.  Exact time
        ties break deterministically on the configuration key, so merging a
        record set yields the same survivors in any order.  The surviving
        record of a same-conditions collision inherits the larger budget of
        the two: a configuration that beats the outcome of a more thorough
        search also satisfies requests at that search's budget.  This is
        the one-record primitive behind :meth:`apply`, the documented write
        path for record batches."""
        self._m_puts.inc()
        winner, effective = self._store.append(record)
        if effective:
            self._m_puts_effective.inc()
            self._m_revision.set(self._store.revision)
        return winner

    @property
    def revision(self) -> int:
        """Monotonic change counter (see :meth:`changes_since`)."""
        return self._store.revision

    def changes_since(self, revision: int) -> List[TuningRecord]:
        """Records whose slot changed after ``revision``, oldest change first.

        ``db.changes_since(checkpoint)`` with a ``checkpoint`` captured from
        :attr:`revision` is an incremental diff: applying the returned
        records to a replica that already saw ``checkpoint`` brings it up to
        date (keep-better apply is idempotent and order-independent, so
        over-delivery is always safe).
        """
        return self._store.changes_since(revision)

    def apply(
        self,
        records: Union["TuningDatabase", Iterable[TuningRecord]],
    ) -> List[TuningRecord]:
        """Keep-better fold of ``records``; returns the surviving changes.

        **The** write path for record batches (and the streaming pool's
        sync primitive): accepts a record iterable or a whole
        :class:`TuningDatabase`, lands each record via :meth:`put`
        (monotonic — an incoming record can only improve a slot, never
        regress it), and returns the records that actually changed the
        database (the winners, post budget-upgrade).  Callers use the
        return value for accounting and to decide what to re-broadcast; an
        empty list means the database already knew everything the batch
        carried.
        """
        if isinstance(records, TuningDatabase):
            records = records.records()
        applied: List[TuningRecord] = []
        for record in records:
            self._m_puts.inc()
            winner, effective = self._store.append(record)
            if effective:
                self._m_puts_effective.inc()
                applied.append(winner)
        if applied:
            self._m_revision.set(self._store.revision)
        return applied

    def lookup(
        self,
        params: ConvParams,
        spec: Union[GPUSpec, str],
        algorithm: str,
        budget: int = 0,
        noise: Optional[float] = None,
        noise_seed: Optional[int] = None,
    ) -> Optional[TuningRecord]:
        """Find the record for a triple, if it covers the caller's request.

        Two validity checks, each skipped when either side is unknown:

        * **budget** — a record produced with a smaller measurement budget
          than the caller is asking for does not count as a hit; the caller's
          more thorough search should run (and upgrade the record).
        * **measurement conditions** — a record measured under different
          executor noise/seed does not count as a hit; its time would not be
          reproducible by the caller's measurer.  Records of unknown
          conditions serve any caller; a caller with unknown conditions is
          served the fastest record on file.

        Runs entirely on the store's lock-free read-copy hot tier, so a
        million lookups a second never stall behind a writer."""
        bucket = self._store.serve((_params_key(params), _gpu_name(spec), algorithm))
        if noise is None:
            candidates = list(bucket.values())
        else:
            candidates = [
                r
                for cond, r in bucket.items()
                if cond == (noise, noise_seed) or cond == (None, None)
            ]
        candidates = [
            r for r in candidates if not (budget and r.budget and r.budget < budget)
        ]
        if not candidates:
            self._misses.inc()
            self._m_serve_misses.inc()
            return None
        self._hits.inc()
        self._m_serve_hits.inc()
        return min(candidates, key=lambda r: r.time_seconds)

    def contains(
        self, params: ConvParams, spec: Union[GPUSpec, str], algorithm: str
    ) -> bool:
        """Membership probe that does not touch the hit/miss counters."""
        return bool(self._store.serve((_params_key(params), _gpu_name(spec), algorithm)))

    # -- persistence ---------------------------------------------------- #
    def save(self, path: Optional[Union[str, os.PathLike]] = None) -> str:
        """Persist; returns the path written.

        Without a ``path`` (or with the database's own), compacts the
        record log (an fsync'd snapshot of the live set, then a log reset)
        and returns the database's path; a database without a path raises
        :class:`ValueError`.  With another ``path``, exports the live
        records as a portable whole-file JSON map, the interchange format
        every build can read and :meth:`load` imports.  A map written over
        the database's own log would lose every later put when reopened.
        """
        own = path is None or (
            self.path is not None
            and os.path.exists(path)
            and os.path.samefile(path, self.path)
        )
        if not own:
            return write_map_file(path, self.records())
        if self._store.snapshot() is None:
            raise ValueError("no path given and the database has no path of its own")
        return self.path

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "TuningDatabase":
        """Import a whole-file JSON map (the ``save(path)`` export) into a
        database without a path; ``OSError`` for I/O trouble,
        :class:`TuningDatabaseError` for truncated/corrupt/incompatible
        content — including a file written by a newer store format, which
        is rejected naming that format version.  ``TuningDatabase(path=...)``
        opens a file to keep writing to it instead."""
        return cls(read_map_file(path))

    def close(self) -> None:
        """Release the record log's file handle; idempotent."""
        self._store.close()

    # -- introspection --------------------------------------------------- #
    def describe(self) -> Dict[str, object]:
        """JSON-native status snapshot (serve it over the wire, or render
        with :func:`repro.obs.format_describe` for humans)."""
        return {
            "kind": "TuningDatabase",
            "records": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "revision": self.revision,
            "store": self._store.describe(),
        }
