"""The daemon's durable request journal + request/result wire codecs.

:class:`RequestJournal` is the write-ahead state machine behind the
always-on :class:`~repro.service.daemon.TuningDaemon`: every accepted
request is journaled *before* it is acknowledged, and every state
transition (``accepted -> running -> done(result) / failed(error)``) is one
appended JSON line, so a SIGKILLed daemon reconstructs exactly which
promises it made — and which results it already computed — on restart.

On disk the journal is an :class:`~repro.core.autotune.store.AppendLog`
of kind ``journal`` — one event per line after the header — whose
``journal-snapshot`` holds the folded per-request state map, written by
:meth:`RequestJournal.snapshot` (a drain hook) or automatically once the
log tail reaches ``snapshot_min_entries`` lines.  An automatic snapshot
that fails is counted and retried at the next append; it never fails the
event whose line is already written.  The log owns flushing, fsync, the
crash windows and the torn-tail rule.

A result is encoded once, by :meth:`RequestJournal.complete`: canonical
JSON text (``sort_keys``, as the wire's ``encode_line``).  The done line
and every snapshot carry that text as a JSON string, recovery reads it
back as text, and the daemon splices it into every ``result`` reply, so
no re-serve or compaction walks the result again.  That is journal format
:data:`JOURNAL_FORMAT` (2); a format-1 journal, which held result objects,
recovers and is rewritten in format 2 before anything is appended, so an
older build refuses the journal by its format marker.

The fold is **monotonic and idempotent**: ``accepted < running < terminal``,
the first terminal event wins, and duplicate or stale events are no-ops —
which is what makes "replay twice == replay once" hold and lets a restarted
daemon re-apply a tail the snapshot already covers without harm.

This module also owns the wire codecs the journal and the line protocol
share: :func:`request_to_wire` / :func:`request_from_wire` (the full frozen
:class:`~repro.service.request.TuningRequest`, GPU spec inlined),
:func:`result_to_wire` / :func:`result_from_wire` (a faithful
:class:`~repro.core.autotune.session.TuningResult` round trip, invalid
infinite-time trials encoded as ``null``), and :func:`request_id` — the
idempotency key: a digest of the request's canonical wire form *minus* the
``deadline`` field, mirroring the frozen dataclass's coalescing equality.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import math
import os
import threading
from typing import Dict, Optional, Union

from ..core.autotune.config import Configuration
from ..core.autotune.session import TrialRecord, TuningResult
from ..core.autotune.store import (
    AppendLog,
    TuningDatabaseError,
    _params_from_dict,
    _params_to_dict,
    canonical_json,
)
from ..gpusim.spec import GPUSpec
from .request import TuningRequest

__all__ = [
    "JOURNAL_FORMAT",
    "JournalEntry",
    "RequestJournal",
    "request_from_wire",
    "request_id",
    "request_to_wire",
    "result_from_wire",
    "result_to_wire",
]

#: request states a journal entry may hold, in lifecycle order.
_ORDER = {"accepted": 0, "running": 1, "done": 2, "failed": 2}
_TERMINAL = ("done", "failed")
#: the journal's on-disk format: 2 since done results are kept as text.
JOURNAL_FORMAT = 2


# -- wire codecs --------------------------------------------------------- #
def request_to_wire(request: TuningRequest) -> Dict[str, object]:
    """JSON-native form of a :class:`TuningRequest`, GPU spec inlined.

    The spec is serialized field-by-field (it is a frozen dataclass of
    scalars, so a shallow copy of its fields), not by registry name, so a
    journal written against a custom GPU model replays without that GPU
    being registered."""
    return {
        "params": _params_to_dict(request.params),
        "spec": dict(request.spec.__dict__),
        "algorithm": request.algorithm,
        "max_measurements": request.max_measurements,
        "batch_size": request.batch_size,
        "initial_random": request.initial_random,
        "patience": request.patience,
        "seed": request.seed,
        "pruned": request.pruned,
        "noise": request.noise,
        "noise_seed": request.noise_seed,
        "tuner": request.tuner,
        "tuner_params": [list(pair) for pair in request.tuner_params],
        "deadline": request.deadline,
    }


def request_from_wire(wire: Dict[str, object]) -> TuningRequest:
    """Inverse of :func:`request_to_wire`; raises ``BadRequest``-worthy
    ``KeyError``/``ValueError``/``TypeError`` on malformed payloads (the
    daemon maps those to a typed rejection)."""
    deadline = wire.get("deadline")
    return TuningRequest(
        params=_params_from_dict(dict(wire["params"])),
        spec=GPUSpec(**dict(wire["spec"])),
        algorithm=str(wire.get("algorithm", "direct")),
        max_measurements=int(wire.get("max_measurements", 256)),
        batch_size=int(wire.get("batch_size", 16)),
        initial_random=int(wire.get("initial_random", 16)),
        patience=int(wire.get("patience", 6)),
        seed=int(wire.get("seed", 0)),
        pruned=bool(wire.get("pruned", True)),
        noise=float(wire["noise"]) if "noise" in wire else 0.05,
        noise_seed=int(wire.get("noise_seed", 2021)),
        tuner=str(wire.get("tuner", "ate")),
        tuner_params=tuple(
            (str(name), value) for name, value in wire.get("tuner_params", [])
        ),
        deadline=None if deadline is None else float(deadline),
    )


def request_id(request: TuningRequest) -> str:
    """The idempotency key: a digest of the canonical wire form minus
    ``deadline``.

    Mirrors the frozen dataclass's equality (``deadline`` is ``compare=False``
    admission metadata), so two requests coalesce in the service exactly
    when they share a request id at the daemon — a client retrying a submit
    (same request, any deadline) lands on the same journal entry instead of
    duplicating work.

    The exclusion is deliberate, not an oversight: ``deadline`` (and the
    daemon-level ``timeout``, which never reaches the wire form at all)
    describe *when* an answer stops being useful, not *which* answer is
    being asked for — two submits differing only in urgency want the same
    measurements.  Retry urgency is honoured separately: the daemon's
    idempotent-resubmit path takes the min of the journaled expiry and the
    retry's timeout (see :meth:`TuningDaemon.submit`).
    """
    wire = request_to_wire(request)
    del wire["deadline"]
    canonical = canonical_json(wire).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:32]


def result_to_wire(result: TuningResult) -> Dict[str, object]:
    """JSON-native form of a :class:`TuningResult` (trial list included).

    Invalid trials carry ``time_seconds: null`` on the wire (JSON has no
    portable ``Infinity``); :func:`result_from_wire` restores ``inf``, so
    the round trip is bit-identical — the property the daemon's re-serve
    guarantee is tested against."""
    trials = []
    for t in result.trials:
        trials.append(
            {
                "index": t.index,
                "config": t.config.as_dict(),
                "time_seconds": t.time_seconds if math.isfinite(t.time_seconds) else None,
                "gflops": t.gflops,
            }
        )
    return {
        "tuner": result.tuner,
        "params": _params_to_dict(result.params),
        "gpu": result.gpu,
        "space_size": result.space_size,
        "from_cache": result.from_cache,
        "trials": trials,
    }


def result_from_wire(wire: Dict[str, object]) -> TuningResult:
    """Inverse of :func:`result_to_wire`.

    Each trial is built as :meth:`Configuration.from_dict` builds its
    configuration: its fields filled in one dict update, not through the
    frozen ``__init__`` (a client decodes one trial per measurement)."""
    result = TuningResult(
        tuner=str(wire["tuner"]),
        params=_params_from_dict(dict(wire["params"])),
        gpu=str(wire["gpu"]),
        space_size=int(wire.get("space_size", 0)),
        from_cache=bool(wire.get("from_cache", False)),
    )
    for t in wire.get("trials", []):
        time_seconds = t.get("time_seconds")
        trial = object.__new__(TrialRecord)
        trial.__dict__.update(
            index=int(t["index"]),
            config=Configuration.from_dict(t["config"]),
            time_seconds=float("inf") if time_seconds is None else float(time_seconds),
            gflops=float(t.get("gflops", 0.0)),
        )
        result.trials.append(trial)
    return result


# -- the journal --------------------------------------------------------- #
def _result_text(result: object) -> str:
    """A done request's journaled result as canonical JSON text: format 2's
    text as is, or a format-1 result object encoded the way
    :meth:`RequestJournal.complete` encodes one.  Anything else, a missing
    or null result included, is a corrupt journal."""
    if isinstance(result, str):
        return result
    if isinstance(result, dict):
        return canonical_json(result)
    raise TuningDatabaseError(
        f"journaled result is {type(result).__name__}, expected text or an object"
    )


@dataclasses.dataclass
class JournalEntry:
    """Folded state of one journaled request (one id, one promise)."""

    rid: str
    request: Dict[str, object]
    status: str = "accepted"
    #: a done request's result wire as canonical JSON text (see
    #: :meth:`RequestJournal.complete`).
    result: Optional[str] = None
    error: Optional[Dict[str, object]] = None

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> Dict[str, object]:
        return {
            "rid": self.rid,
            "request": self.request,
            "status": self.status,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "JournalEntry":
        status = str(d.get("status", "accepted"))
        if status not in _ORDER:
            raise TuningDatabaseError(f"unknown journal entry status {status!r}")
        result = d.get("result")
        return cls(
            rid=str(d["rid"]),
            request=dict(d["request"]),
            status=status,
            result=(
                _result_text(result) if status == "done" or result is not None else None
            ),
            error=None if d.get("error") is None else dict(d["error"]),
        )


class RequestJournal:
    """Append-only request-lifecycle journal with snapshot compaction.

    Thread-safe; every mutation happens under ``self._lock``.  The
    durability unit against process death (SIGKILL) is one event line.  An
    event's entry is stored only after its line is written, so no retry is
    ever acknowledged off an entry that is not on disk: a failed write
    leaves state and file as they were, or the journal :attr:`closed`
    (see :class:`~repro.core.autotune.store.AppendLog`).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        fsync_appends: bool = False,
        snapshot_min_entries: int = 4096,
    ) -> None:
        self._log = AppendLog(
            path, "journal", fsync_appends=fsync_appends, format_version=JOURNAL_FORMAT
        )
        self.path = self._log.path
        self.snapshot_path = self._log.snapshot_path
        self._snapshot_min_entries = int(snapshot_min_entries)
        self._entries: Dict[str, JournalEntry] = {}
        self._recoveries = 0
        self._snapshot_failures = 0
        self._lock = threading.RLock()
        self.recover()

    # -- state machine --------------------------------------------------- #
    def _next_locked(self, event: Dict[str, object]) -> Optional[JournalEntry]:
        """(lock held) The entry ``event`` leaves behind, or None when the
        event changes nothing; changes no state itself.

        Stale or duplicate events are no-ops — never errors — because
        recovery replays a tail the snapshot may already cover, and a
        retried client may resubmit a request the journal already holds.
        """
        kind = event.get("event")
        rid = str(event.get("rid", ""))
        entry = self._entries.get(rid)
        if kind == "accepted":
            if entry is not None:
                return None
            return JournalEntry(rid=rid, request=dict(event["request"]))
        if entry is None or entry.terminal:
            return None
        # A non-terminal entry holds no result or error to carry over.
        if kind == "running":
            if entry.status == "running":
                return None
            return JournalEntry(rid, entry.request, "running")
        if kind == "done":
            return JournalEntry(
                rid, entry.request, "done", result=_result_text(event.get("result"))
            )
        if kind == "failed":
            return JournalEntry(rid, entry.request, "failed", error=dict(event["error"]))
        raise TuningDatabaseError(
            f"{self.path!r}: unknown journal event kind {kind!r}"
        )

    def _append_locked(self, event: Dict[str, object]) -> bool:
        """(lock held) Write an effective event's line, then store its entry.

        The line hits the OS (and, with ``fsync_appends``, the disk) before
        the entry is stored and this returns — the caller may acknowledge
        the event as durable.  A transition of an unknown rid is a daemon
        bug, not a replayable event, and raises.

        Once the line is written the event has happened, so an automatic
        snapshot that fails after it (disk full, a failed fsync) is counted
        and left for the next append to retry.  A failure that closed the
        log still shows in :attr:`closed`, and the next event raises.
        """
        rid = event["rid"]
        if event["event"] != "accepted" and rid not in self._entries:
            raise TuningDatabaseError(f"request journal {self.path!r} holds no entry {rid!r}")
        entry = self._next_locked(event)
        if entry is None:
            return False
        self._log.append(event)
        self._entries[entry.rid] = entry
        if self._log.lines >= self._snapshot_min_entries:
            try:
                self._snapshot_locked()
            except OSError:
                self._snapshot_failures += 1
        return True

    # -- public recording API -------------------------------------------- #
    def accept(self, rid: str, request_wire: Dict[str, object]) -> bool:
        """Durably record an accepted request *before* it is acknowledged.

        Returns False (and writes nothing) when ``rid`` is already
        journaled — the idempotent-resubmit path."""
        with self._lock:
            return self._append_locked(
                {"event": "accepted", "rid": rid, "request": request_wire}
            )

    def mark_running(self, rid: str) -> bool:
        with self._lock:
            return self._append_locked({"event": "running", "rid": rid})

    def complete(self, rid: str, result_wire: Dict[str, object]) -> bool:
        """Record the request's result; re-served bit-identically forever after.

        The one encode of the result: the entry, the done line, every
        snapshot and every re-serve carry this text."""
        if not isinstance(result_wire, dict):
            raise TypeError(f"a result wire is a dict, not {type(result_wire).__name__}")
        text = canonical_json(result_wire)
        with self._lock:
            return self._append_locked({"event": "done", "rid": rid, "result": text})

    def fail(self, rid: str, error_wire: Dict[str, object]) -> bool:
        with self._lock:
            return self._append_locked({"event": "failed", "rid": rid, "error": error_wire})

    # -- reads ----------------------------------------------------------- #
    @property
    def closed(self) -> bool:
        """True after :meth:`close` or a failed write the log could not undo."""
        with self._lock:
            return self._log.closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, rid: str) -> Optional[JournalEntry]:
        """The folded entry for ``rid`` (a defensive copy), or None."""
        with self._lock:
            entry = self._entries.get(rid)
            return None if entry is None else dataclasses.replace(entry)

    def states(self) -> Dict[str, JournalEntry]:
        """Point-in-time copy of every folded entry, acceptance order."""
        with self._lock:
            return {rid: dataclasses.replace(e) for rid, e in self._entries.items()}

    def describe(self) -> Dict[str, object]:
        with self._lock:
            by_status = collections.Counter(e.status for e in self._entries.values())
            return {
                "kind": "RequestJournal",
                "path": self.path,
                "snapshot_path": self.snapshot_path,
                "entries": len(self._entries),
                "log_lines": self._log.lines,
                "recoveries": self._recoveries,
                "snapshot_failures": self._snapshot_failures,
                "by_status": dict(by_status),
                "closed": self._log.closed,
            }

    # -- durability ------------------------------------------------------ #
    def snapshot(self) -> str:
        """Compact now: fsync'd snapshot of the folded state + log reset.

        The drain hook — a journal snapshotted at drain time replays zero
        tail lines on the next start."""
        with self._lock:
            self._snapshot_locked()
            return self.snapshot_path

    def _snapshot_locked(self) -> None:
        """(lock held) Snapshot the folded state, then reset the log."""
        self._log.snapshot({"entries": [e.to_dict() for e in self._entries.values()]})

    # -- recovery -------------------------------------------------------- #
    def recover(self) -> int:
        """Rebuild the folded state from snapshot + log tail; returns the
        number of entries recovered.  Idempotent: recovering twice yields
        the same state map (replay twice == replay once)."""
        with self._lock:
            self._entries = {}
            header = self._log.recover(self._fold_snapshot_locked, self._fold_event_locked)
            if header.get("format", 1) < JOURNAL_FORMAT:
                # An older build's journal: rewrite it in this format before
                # a text result is appended, so that build refuses the
                # journal by its format marker instead of misreading it.
                self._snapshot_locked()
            self._recoveries += 1
            return len(self._entries)

    def _fold_snapshot_locked(self, payload: Dict[str, object]) -> None:
        """(lock held) Fold the snapshot's entries.  First fold wins on
        terminal states — the same monotonic story as event replay, so
        snapshot + over-delivered tail converge on the same map."""
        for d in payload.get("entries", []):
            entry = JournalEntry.from_dict(d)
            self._entries.setdefault(entry.rid, entry)

    def _fold_event_locked(self, event: Dict[str, object]) -> None:
        """(lock held) Replay one event line through the monotonic fold."""
        entry = self._next_locked(event)
        if entry is not None:
            self._entries[entry.rid] = entry

    def close(self) -> None:
        """Release the log handle without snapshotting (idempotent).

        Deliberately *not* a flush point beyond the per-append flush: a
        closed-then-reopened journal and a SIGKILLed-then-reopened journal
        recover identically, which is what the crash tests rely on."""
        with self._lock:
            self._log.close()
