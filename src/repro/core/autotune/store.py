"""The tuning database's records and file formats.

The tuning database (:class:`~repro.core.autotune.database.TuningDatabase`)
is the system of record for every configuration the tuner has found; this
module holds what it stores and all of its file work:

* :class:`TuningRecord` — one problem's best known configuration, and
  :func:`resolve_record`, the keep-better fold every collision goes
  through, so the surviving record set is a deterministic function of the
  record *set*, not of arrival order or storage layout.
* :class:`AppendLog` — the one durable append-only JSON-lines log: an
  atomically installed format-1 header, one flushed (optionally fsync'd)
  all-or-nothing line per append, an fsync'd snapshot followed by a log
  reset, and recovery that folds the snapshot, replays the tail and
  truncates exactly one torn trailing line.  The tuning database on a path
  and the daemon's request journal are folds over it.
* :func:`write_map_file` / :func:`read_map_file` — the whole-file JSON map,
  the portable export and import format (and what older builds saved), and
  the in-place conversion of a map found where a record log belongs.

Only this module makes file-durability calls in ``src/`` (reprolint
REPRO801), so the crash windows are written, and fault-injection tested,
once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import stat
from typing import IO, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ...conv.tensor import ConvParams, Layout
from ...gpusim.spec import GPUSpec
from .config import Configuration
from .session import TrialRecord, TuningResult

__all__ = [
    "FORMAT_VERSION",
    "AppendLog",
    "TuningDatabaseError",
    "TuningRecord",
    "read_map_file",
    "resolve_record",
    "write_map_file",
]

#: on-disk format version stamped into every file the store writes (map
#: exports, log headers, log snapshots).  Readers reject a *newer*
#: format loudly, naming the version — a file from a future build must
#: never be silently misread or clobbered.
FORMAT_VERSION = 1


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
def _create_temp(path: str) -> Tuple[int, str]:
    """Create and open a new temp file beside ``path``: ``(fd, temp path)``.

    The file is created with mode 0666, which the kernel masks with the
    process umask exactly as ``open()`` does for a new file
    (``tempfile.mkstemp`` would always give 0600).
    """
    while True:
        tmp_path = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            return os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp_path
        except FileExistsError:
            continue


def _atomic_write(path: str, write: Callable[[IO[str]], object], fsync: bool = False) -> str:
    """Write a file at ``path`` through ``write(fh)``, via temp file +
    ``os.replace``.

    Readers never observe a half-written file and a crash mid-write leaves
    any previous file intact; ``fsync=True`` additionally forces the bytes
    to stable storage before the rename (crash-recovery snapshots must not
    evaporate on power loss).  Parent directories are created as needed.
    A file that replaces an existing one keeps its permission bits; a new
    one gets the mode ``open()`` would give it.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp_path = _create_temp(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
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
                "; open log files with TuningDatabase(path=...)"
                if found == "log"
                else ""
            )
        )
    return payload


class AppendLog:
    """One durable append-only JSON-lines log with snapshot compaction.

    The file work behind the tuning database on a path and the daemon's
    request journal, each of which is a fold over it.  On disk, ``path``
    holds an atomically installed header line ``{"format": 1, "kind":
    <kind>, ...}`` followed by one JSON object per line, and ``path +
    ".snap"`` holds the compaction snapshot (kind ``<kind>-snapshot``).

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


def _is_log_header(line: str) -> bool:
    """True when ``line`` decodes to a record log's header."""
    try:
        header = json.loads(line)
    except ValueError:
        return False
    return isinstance(header, dict) and header.get("kind") == "log"


def _convert_map_file(path: str) -> None:
    """Replace a JSON map at ``path`` by a record log holding its records.

    A missing or empty file, or one whose first line is a log header, is
    left alone.  The map is read with :func:`read_map_file`, whose errors
    leave it untouched, and one atomic replace installs the log: a crash
    before the replace leaves the map byte-identical, one after it leaves a
    log that holds every record.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
    except FileNotFoundError:
        return
    if not first or _is_log_header(first):
        return
    header = {"format": FORMAT_VERSION, "kind": "log", "snapshot_revision": 0}
    lines = [json.dumps(header, sort_keys=True) + "\n"]
    lines += [
        json.dumps({"rev": rev, "record": record.to_dict()}, sort_keys=True) + "\n"
        for rev, record in enumerate(read_map_file(path), start=1)
    ]
    _atomic_write(path, lambda fh: fh.writelines(lines), fsync=True)
