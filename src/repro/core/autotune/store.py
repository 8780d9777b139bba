"""Pluggable record-store backends behind :class:`TuningDatabase`.

The tuning database is the system of record for every configuration the
tuner has ever found (ROADMAP north star: heavy traffic from millions of
users), so its persistence and serving surface is a formal backend
protocol rather than a hard-wired JSON file:

* :class:`RecordStore` — the backend contract.  A store owns the
  in-memory keep-better map, the revision counter and change log (the
  replication primitive the streaming worker pool syncs on), and a
  **read-copy hot tier**: bucket dicts are copy-on-write and published
  into a top-level dict under the store lock, so :meth:`RecordStore.serve`
  reads without taking the lock and million-record serving never contends
  with writers.
* :class:`JsonMapStore` — the whole-file JSON map (the original
  ``TuningDatabase`` format), retained as the compatibility reference.
  Durability is explicit: :meth:`~JsonMapStore.snapshot` rewrites the
  entire map atomically, O(db) per call.
* :class:`AppendLog` — the one durable append-only JSON-lines log: an
  atomically installed format-1 header, one flushed (optionally fsync'd)
  all-or-nothing line per append, an fsync'd snapshot followed by a log
  reset, and recovery that folds the snapshot, replays the tail and
  truncates exactly one torn trailing line.  :class:`LogStore` and the
  daemon's request journal are folds over it.
* :class:`LogStore` — the append-only record log: a keep-better fold over
  an :class:`AppendLog` of kind ``log``.  Every *effective* append (an
  insert, a faster record, or a budget upgrade) writes one line, so a
  durable put is O(1) amortised; a dead-record ratio threshold triggers
  compaction (the live set becomes the snapshot).

All backends resolve collisions through the same keep-better fold
(:func:`resolve_record`), so swapping backends never changes a tuning
trajectory: the surviving record set is a deterministic function of the
record *set*, not of arrival order or storage layout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
import threading
from typing import IO, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ...conv.tensor import ConvParams, Layout
from ...gpusim.spec import GPUSpec
from ...obs.metrics import NULL_COUNTER, NULL_GAUGE
from .config import Configuration
from .session import TrialRecord, TuningResult

__all__ = [
    "FORMAT_VERSION",
    "AppendLog",
    "JsonMapStore",
    "LogStore",
    "RecordStore",
    "TuningDatabaseError",
    "TuningRecord",
    "read_map_file",
    "resolve_record",
    "write_map_file",
]

#: on-disk format version stamped into every file either backend writes
#: (map files, log headers, log snapshots).  Readers reject a *newer*
#: format loudly, naming the version — a file from a future build must
#: never be silently misread or clobbered.
FORMAT_VERSION = 1

#: retained change-log tail; the log compacts once it reaches twice this.
_CHANGE_LOG_CAP = 4096


class TuningDatabaseError(ValueError):
    """A tuning-database file or wire payload is unusable.

    Subclasses :class:`ValueError` so existing callers catching
    ``ValueError`` around load/recover keep working; raised with a message
    naming the offending path/payload so misconfiguration (a truncated
    ``$REPRO_TUNING_DB`` file, a poisoned sync-queue envelope, a store
    written by a newer build) fails loudly instead of silently starting
    empty.
    """


def _gpu_name(spec: Union[GPUSpec, str]) -> str:
    return spec.name if isinstance(spec, GPUSpec) else str(spec)


def _params_key(params: ConvParams) -> Tuple:
    return (
        params.in_height,
        params.in_width,
        params.in_channels,
        params.out_channels,
        params.ker_height,
        params.ker_width,
        params.stride,
        params.padding,
        params.batch,
        params.layout.value,
    )


def _params_to_dict(params: ConvParams) -> Dict[str, object]:
    # Shallow field copy: every field is a scalar (layout normalised below),
    # and dataclasses.asdict's recursive deep copy dominates the append hot
    # path at log-store scale.
    d = dict(params.__dict__)
    d["layout"] = params.layout.value
    return d


def _params_from_dict(d: Dict[str, object]) -> ConvParams:
    d = dict(d)
    d["layout"] = Layout(d["layout"])
    return ConvParams(**d)


@dataclasses.dataclass(frozen=True)
class TuningRecord:
    """Best known implementation of one convolution problem on one GPU."""

    params: ConvParams
    gpu: str
    algorithm: str
    config: Configuration
    time_seconds: float
    gflops: float
    tuner: str = "ate"
    num_measurements: int = 0  # measurements spent producing this record
    space_size: int = 0
    #: measurement budget of the producing run; 0 = unknown.  The engine only
    #: serves a cached record to requests with an equal-or-smaller budget, so
    #: a quick low-budget record never pins down a thorough later search.
    budget: int = 0
    #: measurement conditions (GPUExecutor noise amplitude and seed) of the
    #: producing run; None = unknown.  Lookups from a measurer with different
    #: conditions are misses — their times would not be comparable.
    noise: Optional[float] = None
    noise_seed: Optional[int] = None

    def key(self) -> Tuple:
        """Problem identity: the ``(params, gpu, algorithm)`` triple."""
        return (_params_key(self.params), self.gpu, self.algorithm)

    def conditions(self) -> Tuple:
        """Measurement-conditions identity; records measured under different
        conditions coexist under the same problem key."""
        return (self.noise, self.noise_seed)

    @classmethod
    def from_result(
        cls,
        result: TuningResult,
        budget: int = 0,
        noise: Optional[float] = None,
        noise_seed: Optional[int] = None,
    ) -> "TuningRecord":
        """Capture the best trial of a finished tuning run as a record.

        ``budget`` is the measurement budget the run was allowed (its
        ``max_measurements``), which may exceed ``result.num_measurements``
        when the run stopped early on patience; ``noise``/``noise_seed``
        are the measurement conditions of the run's executor.  This is the
        bridge from the tuner interface to the database write path:
        ``db.put(TuningRecord.from_result(result, ...))``.
        """
        best = result.best_trial
        return cls(
            params=result.params,
            gpu=result.gpu,
            algorithm=best.config.algorithm,
            config=best.config,
            time_seconds=best.time_seconds,
            gflops=best.gflops,
            tuner=result.tuner,
            num_measurements=result.num_measurements,
            space_size=result.space_size,
            budget=budget,
            noise=noise,
            noise_seed=noise_seed,
        )

    def as_result(self) -> TuningResult:
        """Reconstitute a (single-trial) :class:`TuningResult` for callers
        that expect the tuner interface.

        The synthesized result contains exactly one trial (the recorded
        best), so its ``num_measurements`` is 1 and its convergence curve is
        a single point — neither the zero measurements the cache hit cost
        nor the ``self.num_measurements`` the original search spent.
        Consumers aggregating measurement counts or convergence speed must
        branch on ``from_cache`` (set True here) and read this record's
        ``num_measurements`` for the original cost."""
        result = TuningResult(
            tuner=self.tuner,
            params=self.params,
            gpu=self.gpu,
            space_size=self.space_size,
            from_cache=True,
        )
        result.trials.append(
            TrialRecord(
                index=0,
                config=self.config,
                time_seconds=self.time_seconds,
                gflops=self.gflops,
            )
        )
        return result

    def to_dict(self) -> Dict[str, object]:
        return {
            "params": _params_to_dict(self.params),
            "gpu": self.gpu,
            "algorithm": self.algorithm,
            "config": self.config.as_dict(),
            "time_seconds": self.time_seconds,
            "gflops": self.gflops,
            "tuner": self.tuner,
            "num_measurements": self.num_measurements,
            "space_size": self.space_size,
            "budget": self.budget,
            "noise": self.noise,
            "noise_seed": self.noise_seed,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TuningRecord":
        return cls(
            params=_params_from_dict(d["params"]),
            gpu=str(d["gpu"]),
            algorithm=str(d["algorithm"]),
            config=Configuration(**d["config"]),
            time_seconds=float(d["time_seconds"]),
            gflops=float(d["gflops"]),
            tuner=str(d.get("tuner", "ate")),
            num_measurements=int(d.get("num_measurements", 0)),
            space_size=int(d.get("space_size", 0)),
            budget=int(d.get("budget", 0)),
            noise=None if d.get("noise") is None else float(d["noise"]),
            noise_seed=None if d.get("noise_seed") is None else int(d["noise_seed"]),
        )


def resolve_record(
    record: TuningRecord, existing: Optional[TuningRecord]
) -> TuningRecord:
    """The keep-better collision fold shared by every backend.

    Faster time wins; an exact time tie breaks on the configuration key so
    the surviving record is a deterministic function of the record *set*,
    not of arrival order (two shards finding equal-time configs must
    converge on one winner whatever the queue timing).  The survivor
    inherits the larger budget of the two: a configuration that beats the
    outcome of a more thorough search also satisfies requests at that
    search's budget.
    """
    if existing is None:
        return record
    if record.time_seconds < existing.time_seconds or (
        record.time_seconds == existing.time_seconds
        and record.config.key() < existing.config.key()
    ):
        winner = record
    else:
        winner = existing
    budget = max(record.budget, existing.budget)
    if budget != winner.budget:
        winner = dataclasses.replace(winner, budget=budget)
    return winner


# -- shared on-disk helpers --------------------------------------------- #
def _atomic_write(path: str, write: Callable[[IO[str]], object], fsync: bool = False) -> str:
    """Write a file at ``path`` through ``write(fh)``, via temp file +
    ``os.replace``.

    Readers never observe a half-written file and a crash mid-write leaves
    any previous file intact; ``fsync=True`` additionally forces the bytes
    to stable storage before the rename (crash-recovery snapshots must not
    evaporate on power loss).  Parent directories are created as needed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # The half-written temp file must not survive a failed write.
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    return path


def _atomic_write_json(path: str, payload: dict, fsync: bool = False) -> str:
    """Atomically write ``payload`` as one indented JSON document (see
    :func:`_atomic_write`)."""
    return _atomic_write(
        path, lambda fh: json.dump(payload, fh, indent=1, sort_keys=True), fsync
    )


def _check_format(payload: object, path: Union[str, os.PathLike], kind: str) -> dict:
    """Validate a store file header/payload; raise naming the problem.

    Enforces the satellite fix for forward compatibility: a file stamped
    with a *newer* ``"format"`` raises :class:`TuningDatabaseError` naming
    the format version (never a bare ``KeyError``), so a downgrade is
    diagnosed instead of crashing or clobbering newer data.
    """
    name = os.fspath(path)
    if not isinstance(payload, dict):
        raise TuningDatabaseError(
            f"{name!r} does not hold a tuning database "
            f"(top level is {type(payload).__name__}, expected an object)"
        )
    fmt = payload.get("format", payload.get("version", FORMAT_VERSION))
    if not isinstance(fmt, int) or isinstance(fmt, bool):
        raise TuningDatabaseError(
            f"{name!r}: record-store format marker {fmt!r} is not an integer"
        )
    if fmt > FORMAT_VERSION:
        raise TuningDatabaseError(
            f"{name!r}: record-store format {fmt} is newer than this build "
            f"supports (format {FORMAT_VERSION}); read it with the build that "
            "wrote it, or export it to the older format there"
        )
    found = payload.get("kind", "map")  # pre-kind files are all map files
    if found != kind:
        raise TuningDatabaseError(
            f"{name!r} holds a {found!r} record store, expected {kind!r}"
            + (
                "; open log files via TuningDatabase.open() or LogStore"
                if found == "log"
                else ""
            )
        )
    return payload


class AppendLog:
    """One durable append-only JSON-lines log with snapshot compaction.

    The file work behind :class:`LogStore` and the daemon's request
    journal, each of which is a fold over it.  On disk, ``path`` holds an
    atomically installed header line ``{"format": 1, "kind": <kind>, ...}``
    followed by one JSON object per line, and ``path + ".snap"`` holds the
    compaction snapshot (kind ``<kind>-snapshot``).

    * **Appends** write one line, flushed always and fsync'd when
      ``fsync_appends`` is set.  A failed append is cut back off the file,
      so a line is on disk whole or not at all; if the cut fails too, the
      log closes (fail-stop) and appends raise until :meth:`recover`.
    * **Snapshots** install the owner's payload as an fsync'd ``.snap`` by
      atomic replace, then reset the log to a bare header.
    * **Recovery** folds the snapshot, then replays the tail.  Exactly one
      undecodable *trailing* line is tolerated — the signature of a crash
      mid-append — and truncated away; an undecodable line anywhere else
      is corruption and raises.

    :attr:`lines` counts the log lines since the last snapshot (each
    owner's compaction trigger).  Takes no lock: each owner calls it under
    its own.
    """

    def __init__(
        self, path: Union[str, os.PathLike], kind: str, fsync_appends: bool = False
    ) -> None:
        self.path = os.fspath(path)
        self.snapshot_path = self.path + ".snap"
        self.kind = kind
        self._fsync_appends = bool(fsync_appends)
        self._file: Optional[IO[str]] = None
        self.lines = 0

    @property
    def closed(self) -> bool:
        return self._file is None

    def _open_file(self) -> IO[str]:
        if self._file is None:
            raise TuningDatabaseError(
                f"{self.kind} {self.path!r} is closed; recover() reopens it"
            )
        return self._file

    def append(self, entry: Dict[str, object]) -> None:
        """Write ``entry`` as one line, all or nothing; it reaches the OS
        (and, with ``fsync_appends``, the disk) before this returns."""
        fh = self._open_file()
        line = json.dumps(entry, sort_keys=True) + "\n"
        end = fh.tell()
        try:
            fh.write(line)
            fh.flush()
            if self._fsync_appends:
                os.fsync(fh.fileno())
        except BaseException:
            self._file = None
            with contextlib.suppress(OSError):
                fh.close()  # releases the handle even when its flush fails
            with contextlib.suppress(OSError):
                os.truncate(self.path, end)
                self._file = open(self.path, "a", encoding="utf-8")
            raise
        self.lines += 1

    def snapshot(
        self, payload: Dict[str, object], header: Optional[Dict[str, object]] = None
    ) -> None:
        """Install ``payload`` as the snapshot, then reset the log to a bare
        header carrying ``header``'s fields.

        Crash windows (snapshot fold + log replay must still equal the
        pre-crash state):

        * the snapshot write fails, or the machine dies before its
          ``os.replace`` lands -> old snapshot + full old log survive.
        * death between snapshot replace and log reset -> new snapshot +
          old log, whose replay only over-delivers: both owners' folds are
          idempotent.
        * the log reset fails in process -> the ``finally`` below reopens
          the *old* log; later appends extend it, replay only over-delivers.
        """
        fh = self._open_file()
        body = {"format": FORMAT_VERSION, "kind": f"{self.kind}-snapshot", **payload}
        _atomic_write_json(self.snapshot_path, body, fsync=True)
        self._file = None
        fh.close()
        try:
            self._install_header(header or {})
        finally:
            self._file = open(self.path, "a", encoding="utf-8")
        self.lines = 0

    def _install_header(self, fields: Dict[str, object]) -> Dict[str, object]:
        """Atomically install a header-only log, so a half-written header
        can never exist on disk."""
        header = {"format": FORMAT_VERSION, "kind": self.kind, **fields}
        line = json.dumps(header, sort_keys=True) + "\n"
        _atomic_write(self.path, lambda fh: fh.write(line), fsync=True)
        return header

    def recover(
        self,
        fold_snapshot: Callable[[Dict[str, object]], None],
        fold_line: Callable[[Dict[str, object]], None],
        fresh_header: Callable[[], Dict[str, object]] = dict,
    ) -> Dict[str, object]:
        """Fold the snapshot, replay the log tail, and reopen for appends;
        returns the log's header.

        ``fold_snapshot(payload)`` and ``fold_line(entry)`` fold a decoded
        object into the owner's state.  A :class:`TuningDatabaseError` from
        a fold aborts recovery; any other exception marks the line torn if
        it is the last, corrupt otherwise.  A missing or zero-byte log gets
        a fresh header with the fields of ``fresh_header()``.
        """
        self.close()
        self.lines = 0
        if os.path.exists(self.snapshot_path):
            self._fold_snapshot(fold_snapshot)
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            header = self._replay(fold_line)
        else:
            header = self._install_header(fresh_header())
        self._file = open(self.path, "a", encoding="utf-8")
        return header

    def _fold_snapshot(self, fold: Callable[[Dict[str, object]], None]) -> None:
        name = self.snapshot_path
        with open(name, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise TuningDatabaseError(
                    f"{name!r} is not a valid {self.kind} snapshot (it is written "
                    f"atomically, so this is corruption, not a crash): {exc}"
                ) from exc
        payload = _check_format(payload, name, kind=f"{self.kind}-snapshot")
        try:
            fold(payload)
        except TuningDatabaseError:
            raise
        except Exception as exc:
            raise TuningDatabaseError(
                f"{name!r} holds malformed {self.kind} snapshot entries: {exc}"
            ) from exc

    def _replay(self, fold: Callable[[Dict[str, object]], None]) -> Dict[str, object]:
        name = self.path
        with open(name, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise TuningDatabaseError(
                f"{name!r} has an undecodable {self.kind} header (the header is "
                f"installed atomically, so this is not a crash artifact): {exc}"
            ) from exc
        _check_format(header, name, kind=self.kind)
        for index, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    # A truncated line can decode to a bare JSON scalar.
                    raise ValueError(f"line holds {type(entry).__name__}, expected object")
                fold(entry)
                self.lines += 1
            except TuningDatabaseError:
                raise
            except Exception as exc:
                if index < len(lines):
                    raise TuningDatabaseError(
                        f"{name!r} line {index} is undecodable but not the last "
                        f"line; the {self.kind} is corrupt, not merely truncated: {exc}"
                    ) from exc
                # The torn tail: the append in flight when the process died.
                # Only it is lost; truncating it keeps later appends off the
                # partial line (which would tear *them* too).
                os.truncate(name, sum(len(kept.encode("utf-8")) for kept in lines[:-1]))
                return header
        if not lines[-1].endswith("\n"):
            # The crash cut only the final newline: the line decoded, but
            # the next append would land on it and tear both.
            with open(name, "a", encoding="utf-8") as fh:
                fh.write("\n")
        return header

    def close(self) -> None:
        """Release the append handle (idempotent); :meth:`recover` reopens."""
        fh, self._file = self._file, None
        if fh is not None:
            fh.close()


def write_map_file(
    path: Union[str, os.PathLike], records: Iterable[TuningRecord]
) -> str:
    """Atomically write ``records`` as a whole-file JSON map (format 1).

    The portable export format: one self-contained JSON object, loadable
    by :meth:`TuningDatabase.load` of this and earlier builds (the legacy
    ``"version"`` field is kept alongside the ``"format"`` header).
    """
    target = os.fspath(path)
    payload = {
        "format": FORMAT_VERSION,
        "kind": "map",
        "version": FORMAT_VERSION,
        "records": [r.to_dict() for r in records],
    }
    return _atomic_write_json(target, payload)


def read_map_file(path: Union[str, os.PathLike]) -> List[TuningRecord]:
    """Read a whole-file JSON map; ``OSError`` for I/O trouble,
    :class:`TuningDatabaseError` for truncated/corrupt/incompatible content
    (with the offending path in the message)."""
    name = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # includes json.JSONDecodeError
            raise TuningDatabaseError(
                f"{name!r} is not valid JSON (truncated save, append-only "
                f"log, or foreign file?): {exc}"
            ) from exc
    payload = _check_format(payload, name, kind="map")
    version = payload.get("version", payload.get("format"))
    if version != FORMAT_VERSION:
        raise TuningDatabaseError(
            f"{name!r}: unsupported tuning-database version {version!r}"
        )
    try:
        return [TuningRecord.from_dict(d) for d in payload.get("records", [])]
    except TuningDatabaseError:
        raise
    except Exception as exc:
        raise TuningDatabaseError(
            f"{name!r} holds malformed tuning records: {exc}"
        ) from exc


_EMPTY_BUCKET: Mapping[Tuple, TuningRecord] = {}


class RecordStore:
    """Backend contract + shared in-memory tier of the tuning database.

    Concrete backends (:class:`JsonMapStore`, :class:`LogStore`) inherit
    the keep-better map, revision counter, change log and read-copy hot
    tier, and implement durability by overriding :meth:`snapshot`,
    :meth:`recover` and the :meth:`_persist_effective` hook.

    Concurrency contract: every mutation happens under ``self._lock``;
    bucket dicts are **copy-on-write** (mutated as fresh copies, then
    published into ``self._hot`` by a single dict store), so
    :meth:`serve` — the million-record hot path — reads without taking
    the lock and never observes a half-applied update.
    """

    #: backend discriminator stamped into :meth:`describe` output.
    kind = "memory"

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None) -> None:
        #: problem key -> {measurement conditions -> record}; records for the
        #: same problem measured under different conditions coexist, so two
        #: runners with different executors never evict each other's entries.
        #: Read-copy: buckets are immutable-by-convention once published.
        self._hot: Dict[Tuple, Dict[Tuple, TuningRecord]] = {}
        self._live = 0
        #: monotonic change counter: bumped once per *effective* append (an
        #: insert, a faster record, or a budget upgrade; a losing or equal
        #: record leaves it untouched).  ``_change_log`` appends the changed
        #: (problem, conditions) slot per bump, so :meth:`changes_since` can
        #: stream exactly the records that moved by slicing the tail — the
        #: primitive the worker pool's cross-shard exchange and the log
        #: backend's replication are built on — without rescanning the whole
        #: map every round.  The log is compacted once it doubles
        #: ``_CHANGE_LOG_CAP`` (``_log_base`` tracks the revision of its
        #: first retained entry); a checkpoint older than the retained tail
        #: falls back to over-delivering the whole map, which keep-better
        #: apply makes safe.
        self._revision = 0
        self._log_base = 0
        self._change_log: List[Tuple[Tuple, Tuple]] = []
        self._lock = threading.RLock()
        self.path = os.fspath(path) if path is not None else None
        # Telemetry mirrors (null no-ops until attach_metrics binds real
        # ones); the store sits in the REPRO601 no-wall-clock scope, so
        # only counts and levels are recorded.
        self._m_appends = NULL_COUNTER
        self._m_appends_effective = NULL_COUNTER
        self._m_recoveries = NULL_COUNTER
        self._m_recovered_records = NULL_COUNTER
        self._m_live = NULL_GAUGE

    def attach_metrics(self, metrics) -> None:
        """Bind store telemetry to a metrics scope (see ``repro.obs``).

        The database façade wires this under its own scope as ``db.store``,
        so the full names are ``db.store.appends_total``,
        ``db.store.appends_effective``, ``db.store.recoveries``,
        ``db.store.recovered_records`` and the ``db.store.live_records``
        gauge (:class:`LogStore` adds log/compaction instruments).
        Observability never alters store state: instruments are written on
        the same code paths that already mutate the map, nothing more.
        """
        with self._lock:
            self._m_appends = metrics.counter("appends_total")
            self._m_appends_effective = metrics.counter("appends_effective")
            self._m_recoveries = metrics.counter("recoveries")
            self._m_recovered_records = metrics.counter("recovered_records")
            self._m_live = metrics.gauge("live_records")
            self._m_live.set(self._live)

    # -- in-memory tier -------------------------------------------------- #
    def __len__(self) -> int:
        with self._lock:
            return self._live

    def scan(self) -> List[TuningRecord]:
        """Every live record (one list, point-in-time consistent)."""
        with self._lock:
            return [r for bucket in self._hot.values() for r in bucket.values()]

    def serve(self, key: Tuple) -> Mapping[Tuple, TuningRecord]:
        """The conditions bucket for a problem key — the lock-free hot path.

        Returns the published (immutable-by-convention) bucket dict, or an
        empty mapping.  Safe without the lock because buckets are
        copy-on-write and publication is a single atomic dict store: a
        reader sees either the pre-update or the post-update bucket, never
        a partially-applied one.
        """
        # Read-copy hot tier: buckets are copy-on-write and published
        # atomically, so the unlocked read below sees a consistent snapshot;
        # serving must never contend with writers.
        # reprolint: disable=REPRO201 - lock-free read of published bucket
        return self._hot.get(key, _EMPTY_BUCKET)

    def append(self, record: TuningRecord) -> Tuple[TuningRecord, bool]:
        """Keep-better insert; returns ``(surviving record, effective?)``.

        ``effective`` is True when the slot actually changed (an insert, a
        faster record, or a budget upgrade); only effective appends bump
        the revision, enter the change log, and reach the backend's
        durability hook.  A losing (or identical) record leaves everything
        untouched, which is what keeps record exchange loop-free:
        re-applying a record the store already holds never re-broadcasts
        it and never grows the on-disk log.
        """
        with self._lock:
            self._m_appends.inc()
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
            self._m_appends_effective.inc()
            self._m_live.set(self._live)
            self._persist_effective(winner)
            return winner, True

    @property
    def revision(self) -> int:
        """Monotonic change counter (see :meth:`changes_since`)."""
        with self._lock:
            return self._revision

    def changes_since(self, revision: int) -> List[TuningRecord]:
        """Records whose slot changed after ``revision``, oldest change first.

        ``store.changes_since(checkpoint)`` with a ``checkpoint`` captured
        from :attr:`revision` is an incremental diff: applying the returned
        records to a replica that already saw ``checkpoint`` brings it up
        to date (keep-better apply is idempotent and order-independent, so
        over-delivery is always safe).
        """
        with self._lock:
            if revision < self._log_base:
                # The checkpoint predates the retained log tail (compacted
                # away): over-deliver everything — idempotent keep-better
                # apply makes that merely redundant, never wrong.
                return self.scan()
            seen: set = set()
            changed: List[TuningRecord] = []
            for slot in self._change_log[max(revision - self._log_base, 0):]:
                if slot not in seen:
                    seen.add(slot)
                    key, cond = slot
                    changed.append(self._hot[key][cond])
            return changed

    # -- durability contract (backend-specific) -------------------------- #
    def _persist_effective(self, winner: TuningRecord) -> None:
        """Durability hook, called with the lock held once per effective
        append, after the in-memory tier already holds ``winner``.  The
        base store is memory-only; :class:`LogStore` appends a log line
        here.  :class:`JsonMapStore` deliberately leaves it a no-op — its
        durability is the explicit O(db) :meth:`snapshot`."""

    def snapshot(self) -> Optional[str]:
        """Force the full live set onto stable storage; returns the path
        written (None for an in-memory store with no path)."""
        raise NotImplementedError

    def recover(self) -> int:
        """Rebuild the in-memory tier from stable storage; returns the
        number of live records recovered.  Idempotent: recovering twice
        yields the same record set and revision."""
        raise NotImplementedError

    def close(self) -> None:
        """Release on-disk resources.  Idempotent; a closed store keeps
        serving reads, but backends with open file handles reject further
        appends."""

    # -- introspection / recovery plumbing ------------------------------- #
    def _reset_memory(self) -> None:
        """(lock held) Drop the in-memory tier ahead of a recovery fold."""
        self._hot = {}
        self._live = 0
        self._revision = 0
        self._log_base = 0
        self._change_log = []

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
        # Copy-on-write publish: lock-free serve() readers see the old
        # bucket until the single dict store below lands the new one.
        new_bucket = dict(bucket) if bucket else {}
        new_bucket[cond] = winner
        self._hot[key] = new_bucket
        if existing is None:
            self._live += 1
        return winner, (key, cond)

    def _finish_recovery(self, revision: int) -> int:
        """(lock held) Seal a recovery fold: pin the revision and reset the
        change log so stale replica checkpoints over-deliver (safe) rather
        than miss changes."""
        self._revision = max(revision, self._live)
        self._log_base = self._revision
        self._change_log = []
        self._m_recoveries.inc()
        self._m_recovered_records.inc(self._live)
        self._m_live.set(self._live)
        return self._live

    def describe(self) -> Dict[str, object]:
        """JSON-native introspection snapshot (see satellite: structured
        ``describe()``); backends extend with their durability state."""
        with self._lock:
            return {
                "kind": self.kind,
                "path": self.path,
                "records": self._live,
                "revision": self._revision,
            }


class JsonMapStore(RecordStore):
    """Whole-file JSON map backend — the compatibility reference.

    The original ``TuningDatabase`` on-disk format: :meth:`snapshot`
    atomically rewrites the entire map (O(db) per call, fine for
    thousands of records, the reason :class:`LogStore` exists for
    millions), :meth:`recover` re-reads it.  No write-ahead state exists,
    so a crash between snapshots loses the puts since the last snapshot —
    the historical contract of ``TuningDatabase.save()``.
    """

    kind = "map"

    def __init__(
        self,
        records: Iterable[TuningRecord] = (),
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        super().__init__(path=path)
        for record in records:
            self.append(record)

    def snapshot(self) -> Optional[str]:
        if self.path is None:
            return None
        return write_map_file(self.path, self.scan())

    def recover(self) -> int:
        if self.path is None:
            raise TuningDatabaseError(
                "in-memory JsonMapStore has no path to recover from"
            )
        records = read_map_file(self.path)
        with self._lock:
            self._reset_memory()
            for record in records:
                self._publish_locked(record)
            return self._finish_recovery(self._live)


class LogStore(RecordStore):
    """Append-only record log: a keep-better fold over an :class:`AppendLog`.

    On disk (kind ``log``): the header line
    ``{"format": 1, "kind": "log", "snapshot_revision": R}`` is followed by
    one line per effective append ``{"rev": n, "record": {...}}`` (the
    surviving *winner* is logged, so replay needs no budget-merge
    reconstruction); the ``log-snapshot`` holds the live ``records`` and
    their ``revision``.

    * **Appends** are O(1): one line per effective append, flushed always
      and fsync'd when ``fsync_appends`` is set (snapshots always fsync).
      The hot tier publishes before the line is written: a put is not an
      acknowledgement, so a put whose line fails to write stays served
      from memory until the next recovery.
    * **Compaction** triggers when the log holds at least
      ``compact_min_entries`` entries and the dead-record ratio
      ``dead / (dead + live)`` reaches ``compact_dead_ratio``: the live
      set becomes the snapshot and the log is reset to a bare header.
      The rewrite costs O(live) but needs >= live dead entries to trigger,
      so durable appends stay O(1) amortised.
    * **Recovery** folds the snapshot, then replays the log tail in order
      through the same keep-better fold (idempotent, so replaying entries
      the snapshot already covers is safe); a crash mid-append loses only
      that put (see :class:`AppendLog`).
    """

    kind = "log"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        records: Iterable[TuningRecord] = (),
        *,
        compact_dead_ratio: float = 0.5,
        compact_min_entries: int = 1024,
        fsync_appends: bool = False,
    ) -> None:
        super().__init__(path=path)
        if not 0.0 < compact_dead_ratio <= 1.0:
            raise ValueError(
                f"compact_dead_ratio must be in (0, 1], got {compact_dead_ratio}"
            )
        self._log = AppendLog(self.path, "log", fsync_appends=fsync_appends)
        self.snapshot_path = self._log.snapshot_path
        self._compact_dead_ratio = float(compact_dead_ratio)
        self._compact_min_entries = int(compact_min_entries)
        #: the slots the log tail holds lines for since the last compaction;
        #: every other tail line is dead (see :meth:`_dead_locked`).
        self._logged_slots: set = set()
        self._m_log_appends = NULL_COUNTER
        self._m_compactions = NULL_COUNTER
        self._m_compaction_records = NULL_COUNTER
        self._m_log_entries = NULL_GAUGE
        self._m_dead = NULL_GAUGE
        self.recover()
        for record in records:
            self.append(record)

    def attach_metrics(self, metrics) -> None:
        """Bind log telemetry: everything the base store records plus
        ``log_appends`` (lines written), ``compactions`` /
        ``compaction_records`` (rewrites and the live records they
        carried), and the ``log_entries`` / ``dead_entries`` tail gauges
        (full names ``db.store.*`` when wired through the façade)."""
        super().attach_metrics(metrics)
        with self._lock:
            self._m_log_appends = metrics.counter("log_appends")
            self._m_compactions = metrics.counter("compactions")
            self._m_compaction_records = metrics.counter("compaction_records")
            self._m_log_entries = metrics.gauge("log_entries")
            self._m_dead = metrics.gauge("dead_entries")
            self._m_log_entries.set(self._log.lines)
            self._m_dead.set(self._dead_locked())

    # -- durability ------------------------------------------------------ #
    def _persist_effective(self, winner: TuningRecord) -> None:
        """(lock held) Append one effective record to the log; compact when
        the dead ratio crosses the threshold."""
        self._log.append({"rev": self._revision, "record": winner.to_dict()})
        self._logged_slots.add((winner.key(), winner.conditions()))
        dead = self._dead_locked()
        self._m_log_appends.inc()
        self._m_log_entries.set(self._log.lines)
        self._m_dead.set(dead)
        if self._log.lines >= self._compact_min_entries and (
            dead >= self._compact_dead_ratio * (dead + self._live)
        ):
            self._compact_locked()

    def _dead_locked(self) -> int:
        """(lock held) Tail lines superseded by a later line for the same
        slot: each tail line either logs a new slot or is dead."""
        return self._log.lines - len(self._logged_slots)

    def snapshot(self) -> Optional[str]:
        """Compact now: fsync'd snapshot of the live set + log reset.

        Also the idle-time hook for bounding recovery: a long-lived daemon
        can snapshot between traffic bursts so restart replays only a
        short tail."""
        with self._lock:
            self._compact_locked()
            return self.snapshot_path

    def _compact_locked(self) -> None:
        """(lock held) Snapshot the live set, then reset the log (crash
        windows: :meth:`AppendLog.snapshot`)."""
        records = self.scan()
        self._log.snapshot(
            {"revision": self._revision, "records": [r.to_dict() for r in records]},
            header={"snapshot_revision": self._revision},
        )
        self._logged_slots = set()
        self._m_compactions.inc()
        self._m_compaction_records.inc(len(records))
        self._m_log_entries.set(0)
        self._m_dead.set(0)

    # -- recovery -------------------------------------------------------- #
    def recover(self) -> int:
        """Rebuild memory from snapshot + log tail (see class docstring);
        ``self._revision`` tracks the highest revision seen until
        :meth:`_finish_recovery` pins it."""
        with self._lock:
            self._reset_memory()
            self._logged_slots = set()
            header = self._log.recover(
                self._fold_snapshot_locked,
                self._fold_line_locked,
                fresh_header=lambda: {"snapshot_revision": self._revision},
            )
            self._m_log_entries.set(self._log.lines)
            self._m_dead.set(self._dead_locked())
            return self._finish_recovery(
                max(self._revision, int(header.get("snapshot_revision", 0)))
            )

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
        with self._lock:
            self._log.close()

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        with self._lock:
            info.update(
                snapshot_path=self.snapshot_path,
                log_entries=self._log.lines,
                dead_entries=self._dead_locked(),
                closed=self._log.closed,
            )
        return info
