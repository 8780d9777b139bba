"""Persistent tuning database: share tuned configurations across layers/runs.

Networks repeat convolution shapes heavily (every ResNet stage re-uses the
same 3x3 layer many times, and ResNet-18/34 share most shapes outright), and
the paper's tuner spends essentially all of its time measuring batches of
configurations.  The :class:`TuningDatabase` removes the repeated work: the
best configuration found for a ``(ConvParams, GPUSpec, algorithm)`` triple is
recorded once and every later tuning request for the same triple — in the
same process or after a persistence round trip — is answered from the
database instead of re-running the search.

One class is the whole record store: :class:`TuningDatabase` keeps the
keep-better record map, the revision counter and change log the streaming
worker pool syncs on, and a copy-on-write map that
:meth:`TuningDatabase.lookup` reads without taking a lock.  It lives in
memory when the database has no path; otherwise it is a fold over an
append-only log at the path (``store.py`` owns the file work), with
compaction and crash recovery, so every put is on disk as soon as it is
made.  A whole-file JSON map is only an import and export format
(:meth:`TuningDatabase.load`, ``save(path)``); a map found at the
database's own path is converted to a log in place.

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
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ...conv.tensor import ConvParams
from ...gpusim.spec import GPUSpec
from ...obs.metrics import NULL_COUNTER, NULL_GAUGE, Counter
from .store import (
    AppendLog,
    TuningDatabaseError,
    TuningRecord,
    _convert_map_file,
    _gpu_name,
    _params_key,
    read_map_file,
    resolve_record,
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


#: retained change-log tail; the change log compacts once it reaches twice this.
_CHANGE_LOG_CAP = 4096

_EMPTY_BUCKET: Mapping[Tuple, TuningRecord] = {}

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
    """Keep-better record map, in memory or on a record log.

    **In memory.**  Problem key -> {measurement conditions -> record}; every
    put goes through the keep-better fold (:func:`resolve_record`), a
    revision counter bumps once per *effective* put, and a bounded change
    log feeds :meth:`changes_since`.  Every write happens under
    ``self._lock``, so one database is safe to share between a
    :class:`~repro.service.TuningService` driver thread and submitting
    threads.  Bucket dicts are **copy-on-write** (changed as fresh copies,
    then published into the map by a single dict store), so :meth:`lookup`
    reads without taking the lock, never stalls behind a writer and never
    observes a half-applied update.  ``hits``/``misses`` count
    :meth:`lookup` outcomes so callers (tests, the model runner) can verify
    that repeated layers reuse tuning work instead of re-measuring.
    :meth:`apply` is the single documented write path for record batches;
    :meth:`put` is its one-record primitive.  Without a ``path`` that is
    all there is: a put does no file work.

    **On a log** (with a ``path``, created when missing): a fold over an
    :class:`~repro.core.autotune.store.AppendLog` of kind ``log``.  The
    header line ``{"format": 1, "kind": "log", "snapshot_revision": R}`` is
    followed by one line per effective put ``{"rev": n, "record": {...}}``
    (the surviving *winner* is logged, so replay needs no budget-merge
    reconstruction); the ``log-snapshot`` holds the live ``records`` and
    their ``revision``.

    * **Puts** are O(1): one flushed line per effective put.  The map
      publishes before the line is written: a put is not an
      acknowledgement, so a put whose line fails to write stays served from
      memory until the next recovery.
    * **Compaction** triggers when the log holds at least
      :attr:`COMPACT_MIN_ENTRIES` lines and the dead-record ratio
      ``dead / (dead + live)`` reaches :attr:`COMPACT_DEAD_RATIO`: the live
      set becomes the fsync'd snapshot and the log is reset to a bare
      header.  The rewrite costs O(live) but needs >= live dead entries to
      trigger, so durable puts stay O(1) amortised.  It runs after the
      put's line is written, so a compaction that raises ``OSError`` (disk
      full, a failed fsync) does not fail that put: it is counted in
      ``describe()["snapshot_failures"]`` and retried at the next effective
      put.  An explicit :meth:`save` raises.
    * **Recovery** folds the snapshot, then replays the log tail in order
      through the same keep-better fold (idempotent, so replaying entries
      the snapshot already covers is safe); a crash mid-append loses only
      that put (see :class:`~repro.core.autotune.store.AppendLog`).
    * **A JSON map at the path** (a non-empty file whose first line is not
      a log header, such as a ``save(path)`` export or a file an older
      build saved) is converted to a log in place before recovery.
    """

    #: compaction thresholds of a database on a log (see the class docstring).
    COMPACT_DEAD_RATIO = 0.5
    COMPACT_MIN_ENTRIES = 1024

    def __init__(
        self,
        records: Iterable[TuningRecord] = (),
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        #: problem key -> {measurement conditions -> record}; records for the
        #: same problem measured under different conditions coexist, so two
        #: runners with different executors never evict each other's entries.
        #: Read-copy: buckets are immutable-by-convention once published.
        self._hot: Dict[Tuple, Dict[Tuple, TuningRecord]] = {}
        self._live = 0
        #: monotonic change counter: bumped once per *effective* put (an
        #: insert, a faster record, or a budget upgrade; a losing or equal
        #: record leaves it untouched).  ``_change_log`` appends the changed
        #: (problem, conditions) slot per bump, so :meth:`changes_since` can
        #: stream exactly the records that moved by slicing the tail — the
        #: primitive the worker pool's cross-shard exchange is built on —
        #: without rescanning the whole map every round.  The change log is
        #: compacted once it doubles ``_CHANGE_LOG_CAP`` (``_log_base``
        #: tracks the revision of its first retained entry); a checkpoint
        #: older than the retained tail falls back to over-delivering the
        #: whole map, which keep-better apply makes safe.
        self._revision = 0
        self._log_base = 0
        self._change_log: List[Tuple[Tuple, Tuple]] = []
        self._lock = threading.RLock()
        self._path = None if path is None else os.fspath(path)
        self._log = None if self._path is None else AppendLog(self._path, "log")
        #: the slots the log tail holds lines for since the last compaction;
        #: every other tail line is dead (see :meth:`_dead_locked`).
        self._logged_slots: set = set()
        self._snapshot_failures = 0
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
        self._m_recoveries = NULL_COUNTER
        self._m_recovered_records = NULL_COUNTER
        self._m_live = NULL_GAUGE
        self._m_log_appends = NULL_COUNTER
        self._m_compactions = NULL_COUNTER
        self._m_compaction_records = NULL_COUNTER
        self._m_snapshot_failures = NULL_COUNTER
        self._m_log_entries = NULL_GAUGE
        self._m_dead = NULL_GAUGE
        if self._log is not None:
            self.recover()
        for record in records:
            self.put(record)

    @property
    def path(self) -> Optional[str]:
        """The record log's path (None for an in-memory database); read-only."""
        return self._path

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
        (lookup outcomes) and the ``revision`` growth gauge.  The record
        keeping goes under the nested ``store`` scope: ``recoveries``,
        ``recovered_records`` and the ``live_records`` gauge; a database on
        a log adds ``log_appends`` (lines written), ``compactions`` /
        ``compaction_records`` (rewrites and the live records they
        carried), ``snapshot_failures`` (automatic compactions that raised)
        and the ``log_entries`` / ``dead_entries`` tail gauges.
        Observability never alters database state: instruments are written
        on the same code paths that already change the map, nothing more.
        """
        # lookup() takes no lock, so its instruments are bound outside it.
        self._m_serve_hits = metrics.counter("serve_hits")
        self._m_serve_misses = metrics.counter("serve_misses")
        store = metrics.scope("store")
        with self._lock:
            self._m_puts = metrics.counter("puts_total")
            self._m_puts_effective = metrics.counter("puts_effective")
            self._m_revision = metrics.gauge("revision")
            self._m_recoveries = store.counter("recoveries")
            self._m_recovered_records = store.counter("recovered_records")
            self._m_live = store.gauge("live_records")
            self._m_live.set(self._live)
            if self._log is not None:
                self._m_log_appends = store.counter("log_appends")
                self._m_compactions = store.counter("compactions")
                self._m_compaction_records = store.counter("compaction_records")
                self._m_snapshot_failures = store.counter("snapshot_failures")
                self._m_log_entries = store.gauge("log_entries")
                self._m_dead = store.gauge("dead_entries")
                self._m_log_entries.set(self._log.lines)
                self._m_dead.set(self._dead_locked())

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
        with self._lock:
            return self._live

    def records(self) -> List[TuningRecord]:
        """Every live record (one list, point-in-time consistent)."""
        with self._lock:
            return [r for bucket in self._hot.values() for r in bucket.values()]

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
        return self._put(record)[0]

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
        return [winner for winner, effective in map(self._put, records) if effective]

    def _put(self, record: TuningRecord) -> Tuple[TuningRecord, bool]:
        """Keep-better insert; returns ``(surviving record, effective?)``.

        ``effective`` is True when the slot actually changed (an insert, a
        faster record, or a budget upgrade); only effective puts bump the
        revision, enter the change log, and reach the log on disk.  A
        losing (or identical) record leaves everything untouched, which is
        what keeps record exchange loop-free: re-applying a record the
        database already holds never re-broadcasts it and never grows the
        log.
        """
        with self._lock:
            self._m_puts.inc()
            winner, slot = self._publish_locked(record)
            if slot is None:
                return winner, False
            self._revision += 1
            self._change_log.append(slot)
            if len(self._change_log) >= 2 * _CHANGE_LOG_CAP:
                # Amortised O(1) compaction keeps a daemon-lifetime change
                # log bounded; stale checkpoints fall back to safe
                # over-delivery in changes_since().
                del self._change_log[:_CHANGE_LOG_CAP]
                self._log_base += _CHANGE_LOG_CAP
            self._m_puts_effective.inc()
            self._m_revision.set(self._revision)
            self._m_live.set(self._live)
            if self._log is not None:
                self._log_locked(winner, slot)
            return winner, True

    def _publish_locked(self, record: TuningRecord) -> Tuple[TuningRecord, Optional[Tuple]]:
        """(lock held) Keep-better fold of ``record`` into its bucket;
        returns the survivor and the changed ``(key, conditions)`` slot, or
        None when nothing changed.  Recovery folds through it too, bumping
        no revision: it reconstructs state, it creates no changes."""
        key = record.key()
        cond = record.conditions()
        bucket = self._hot.get(key)
        existing = bucket.get(cond) if bucket else None
        winner = resolve_record(record, existing)
        if winner is existing:
            return existing, None
        # Copy-on-write publish: lock-free lookup() readers see the old
        # bucket until the single dict store below lands the new one.
        new_bucket = dict(bucket) if bucket else {}
        new_bucket[cond] = winner
        self._hot[key] = new_bucket
        if existing is None:
            self._live += 1
        return winner, (key, cond)

    @property
    def revision(self) -> int:
        """Monotonic change counter (see :meth:`changes_since`)."""
        with self._lock:
            return self._revision

    def changes_since(self, revision: int) -> List[TuningRecord]:
        """Records whose slot changed after ``revision``, oldest change first.

        ``db.changes_since(checkpoint)`` with a ``checkpoint`` captured from
        :attr:`revision` is an incremental diff: applying the returned
        records to a replica that already saw ``checkpoint`` brings it up to
        date (keep-better apply is idempotent and order-independent, so
        over-delivery is always safe).
        """
        with self._lock:
            if revision < self._log_base:
                # The checkpoint predates the retained change-log tail
                # (compacted away): over-deliver everything — idempotent
                # keep-better apply makes that merely redundant, never wrong.
                return self.records()
            seen: set = set()
            changed: List[TuningRecord] = []
            for slot in self._change_log[max(revision - self._log_base, 0):]:
                if slot not in seen:
                    seen.add(slot)
                    key, cond = slot
                    changed.append(self._hot[key][cond])
            return changed

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

        Runs entirely on the lock-free read-copy map, so a million lookups a
        second never stall behind a writer."""
        key = (_params_key(params), _gpu_name(spec), algorithm)
        # Read-copy map: buckets are copy-on-write and published atomically,
        # so the unlocked read below sees a consistent snapshot; serving must
        # never contend with writers.
        # reprolint: disable=REPRO201 - lock-free read of published bucket
        bucket = self._hot.get(key, _EMPTY_BUCKET)
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

    # -- durability ------------------------------------------------------ #
    def _log_locked(self, winner: TuningRecord, slot: Tuple) -> None:
        """(lock held) Append one effective record to the log; compact when
        the dead ratio crosses the threshold.

        The line is written first, so the put has happened: a compaction
        that fails after it is counted and left for the next effective put
        to retry.  A failure that closed the log still shows in
        ``describe()["closed"]``, and the next put raises."""
        self._log.append({"rev": self._revision, "record": winner.to_dict()})
        self._logged_slots.add(slot)
        dead = self._dead_locked()
        self._m_log_appends.inc()
        self._m_log_entries.set(self._log.lines)
        self._m_dead.set(dead)
        if self._log.lines >= self.COMPACT_MIN_ENTRIES and (
            dead >= self.COMPACT_DEAD_RATIO * (dead + self._live)
        ):
            try:
                self._compact_locked()
            except OSError:
                self._snapshot_failures += 1
                self._m_snapshot_failures.inc()

    def _dead_locked(self) -> int:
        """(lock held) Tail lines superseded by a later line for the same
        slot: each tail line either logs a new slot or is dead."""
        return self._log.lines - len(self._logged_slots)

    def _compact_locked(self) -> None:
        """(lock held) Snapshot the live set, then reset the log (crash
        windows: :meth:`AppendLog.snapshot`)."""
        records = self.records()
        self._log.snapshot(
            {"revision": self._revision, "records": [r.to_dict() for r in records]},
            header={"snapshot_revision": self._revision},
        )
        self._logged_slots = set()
        self._m_compactions.inc()
        self._m_compaction_records.inc(len(records))
        self._m_log_entries.set(0)
        self._m_dead.set(0)

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
        with self._lock:
            if self._log is None:
                raise ValueError("no path given and the database has no path of its own")
            self._compact_locked()
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

    def recover(self) -> int:
        """Rebuild memory from the path: convert a JSON map in place, fold
        the snapshot, replay the log tail (see the class docstring) and
        reopen the log for puts; returns the number of live records.
        Idempotent: recovering twice yields the same record set and
        revision.  A database without a path raises
        :class:`TuningDatabaseError`."""
        with self._lock:
            if self._log is None:
                raise TuningDatabaseError(
                    "a TuningDatabase without a path has nothing to recover from"
                )
            _convert_map_file(self._log.path)
            self._hot = {}
            self._live = 0
            self._revision = 0
            self._log_base = 0
            self._change_log = []
            self._logged_slots = set()
            # self._revision tracks the highest revision seen until the end
            # pins it.
            header = self._log.recover(
                self._fold_snapshot_locked,
                self._fold_line_locked,
                fresh_header=lambda: {"snapshot_revision": self._revision},
            )
            # Pin the revision where the empty change log starts, so a stale
            # replica checkpoint over-delivers (safe) rather than misses
            # changes.
            self._revision = max(
                self._revision, int(header.get("snapshot_revision", 0)), self._live
            )
            self._log_base = self._revision
            self._m_recoveries.inc()
            self._m_recovered_records.inc(self._live)
            self._m_live.set(self._live)
            self._m_log_entries.set(self._log.lines)
            self._m_dead.set(self._dead_locked())
            return self._live

    def _fold_snapshot_locked(self, payload: Dict[str, object]) -> None:
        """(lock held) Fold the snapshot's live records and its revision."""
        for d in payload.get("records", []):
            self._publish_locked(TuningRecord.from_dict(d))
        self._revision = int(payload.get("revision", 0))

    def _fold_line_locked(self, entry: Dict[str, object]) -> None:
        """(lock held) Replay one log line through the keep-better fold."""
        record = TuningRecord.from_dict(entry["record"])
        rev = int(entry.get("rev", 0))
        self._publish_locked(record)
        self._logged_slots.add((record.key(), record.conditions()))
        self._revision = max(self._revision, rev)

    def close(self) -> None:
        """Release the record log's file handle (idempotent); a closed
        database keeps serving lookups, and :meth:`recover` reopens it."""
        with self._lock:
            if self._log is not None:
                self._log.close()

    # -- introspection --------------------------------------------------- #
    def describe(self) -> Dict[str, object]:
        """JSON-native status snapshot (serve it over the wire, or render
        with :func:`repro.obs.format_describe` for humans): ``store`` is
        ``"memory"`` without a path and ``"log"`` with one, which adds the
        log's fields."""
        with self._lock:
            info: Dict[str, object] = {
                "kind": "TuningDatabase",
                "store": "memory" if self._log is None else "log",
                "records": self._live,
                "hits": self.hits,
                "misses": self.misses,
                "revision": self._revision,
            }
            if self._log is not None:
                info.update(
                    path=self.path,
                    snapshot_path=self._log.snapshot_path,
                    log_entries=self._log.lines,
                    dead_entries=self._dead_locked(),
                    snapshot_failures=self._snapshot_failures,
                    closed=self._log.closed,
                )
            return info
