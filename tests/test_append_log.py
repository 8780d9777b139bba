"""One fault-injection suite for the durable append-only log.

:class:`~repro.core.autotune.store.AppendLog` does the file work behind two
folds: :class:`~repro.core.autotune.database.TuningDatabase` on a path (the
record store) and :class:`~repro.service.journal.RequestJournal` (the
daemon's request journal).  Every case runs against both through a small
adapter that opens the fold, appends its ``i``-th item and reads its state,
and compares with a reference fold that appended the same items and never
crashed:

* a torn tail, cut at every byte offset of the final line (the
  newline-only cut included), recovers, takes one more append and
  recovers again;
* a corrupt line that is not the last raises;
* a crash during the snapshot write, a crash between snapshot install and
  log reset, and a log reset that fails in process;
* a zero-byte log, newer-format headers and snapshots, and the fresh
  header bytes;
* a failed append, whole line written or torn, is cut back off the file,
  and is fail-stop when it cannot be.
"""

import errno
import json
import os
import random

import pytest

from repro.conv import ConvParams
from repro.core.autotune import SearchSpace, TuningDatabase, TuningDatabaseError, TuningRecord
from repro.core.autotune import store
from repro.core.autotune.store import FORMAT_VERSION
from repro.gpusim import V100
from repro.service import RequestJournal
from repro.service.journal import JOURNAL_FORMAT

LAYER = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
CONFIG = SearchSpace(LAYER, V100, "direct", pruned=True).random_configuration(
    random.Random(0)
)


class RecordLog(TuningDatabase):
    """A database on a log, with the journal's name for compacting now."""

    snapshot = TuningDatabase.save


class StoreFold:
    """Database items: records over five slots, so items 5+ supersede."""

    name = "store"
    kind = "log"
    format = FORMAT_VERSION
    fresh_header = b'{"format": 1, "kind": "log", "snapshot_revision": 0}\n'
    #: the store publishes a put before writing it (puts are not
    #: acknowledgements); the journal stores an event only once written.
    publishes_first = True

    def make(self, path, fsync_appends=False):
        db = RecordLog(path=path)
        # Only the journal offers fsync'd appends; the failed-append cases
        # fail the fsync after the whole line is written.
        db._log._fsync_appends = fsync_appends
        return db

    def add(self, store, i):
        store.put(
            TuningRecord(
                params=LAYER.with_batch(i % 5 + 1),
                gpu="V100",
                algorithm="direct",
                config=CONFIG,
                time_seconds=1e-3 / (i + 1),
                gflops=1.0,
            )
        )

    def state(self, store):
        return sorted((r.key(), r.time_seconds) for r in store.records())


#: the journal's items; transitions only touch rids accepted by items the
#: cases below never lose, so every item applies after any lost one.
JOURNAL_EVENTS = (
    ("accept", "r0"),
    ("accept", "r1"),
    ("mark_running", "r0"),
    ("complete", "r1"),
    ("accept", "r2"),
    ("complete", "r0"),
    ("accept", "r3"),
    ("accept", "r4"),
    ("fail", "r2"),
)


class JournalFold:
    name = "journal"
    kind = "journal"
    format = JOURNAL_FORMAT
    fresh_header = b'{"format": 2, "kind": "journal"}\n'
    publishes_first = False

    def make(self, path, **kwargs):
        return RequestJournal(path, **kwargs)

    def add(self, journal, i):
        method, rid = JOURNAL_EVENTS[i]
        args = () if method == "mark_running" else ({"i": i},)
        getattr(journal, method)(rid, *args)

    def state(self, journal):
        return {rid: entry.to_dict() for rid, entry in journal.states().items()}


@pytest.fixture(params=[StoreFold(), JournalFold()], ids=lambda fold: fold.name)
def fold(request):
    return request.param


@pytest.fixture
def path(tmp_path):
    """The live fold's log, alone in its directory."""
    directory = tmp_path / "live"
    directory.mkdir()
    return directory / "fold.log"


def reference(fold, tmp_path, items):
    """State of a fold that appended ``items`` and never crashed."""
    directory = tmp_path / ("ref-" + "-".join(map(str, items)))
    directory.mkdir()
    log = fold.make(directory / "fold.log")
    for i in items:
        fold.add(log, i)
    state = fold.state(log)
    log.close()
    return state


def built(fold, path, count, **kwargs):
    log = fold.make(path, **kwargs)
    for i in range(count):
        fold.add(log, i)
    return log


def reopened_state(fold, path):
    log = fold.make(path)
    state = fold.state(log)
    log.close()
    return state


def fail_replace_unless_snapshot(monkeypatch):
    """Let only the snapshot's ``os.replace`` land: the log reset fails."""
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst).endswith(".snap"):
            return real_replace(src, dst)
        raise OSError("power cut before log reset")

    monkeypatch.setattr(os, "replace", replace)


def test_torn_tail_sweep(fold, path, tmp_path):
    # Cutting anywhere inside the final line loses only that append; the
    # newline-only cut leaves a complete line that must not swallow the
    # next append.  Either way the fold keeps appending cleanly.
    count = 6
    built(fold, path, count).close()
    full = path.read_bytes()
    start = full.rstrip(b"\n").rfind(b"\n") + 1
    kept = reference(fold, tmp_path, list(range(count)))
    kept_then = reference(fold, tmp_path, list(range(count + 1)))
    lost = reference(fold, tmp_path, list(range(count - 1)))
    lost_then = reference(fold, tmp_path, [*range(count - 1), count])
    for cut in range(start, len(full)):
        path.write_bytes(full[:cut])
        whole = cut == len(full) - 1
        recovered = fold.make(path)
        assert fold.state(recovered) == (kept if whole else lost), f"cut at {cut}"
        fold.add(recovered, count)
        recovered.close()
        assert reopened_state(fold, path) == (kept_then if whole else lost_then), (
            f"cut at {cut}"
        )


def test_corrupt_middle_line_raises(fold, path):
    built(fold, path, 3).close()
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b'{"torn\n'
    path.write_bytes(b"".join(lines))
    with pytest.raises(TuningDatabaseError, match="not merely truncated"):
        fold.make(path)


def test_crash_during_snapshot_write(fold, path, tmp_path, monkeypatch):
    log = built(fold, path, 6)
    before = fold.state(log)
    atomic_write = store._atomic_write

    def exploding_write(target, write, fsync=False):
        # The snapshot's text write dies partway; other writes run.
        if not os.fspath(target).endswith(".snap"):
            return atomic_write(target, write, fsync)

        def torn(fh):
            fh.write('{"format": 1, "entries": [tor')
            raise OSError("disk full")

        return atomic_write(target, torn, fsync)

    monkeypatch.setattr(store, "_atomic_write", exploding_write)
    with pytest.raises(OSError, match="disk full"):
        log.snapshot()
    monkeypatch.undo()
    # No snapshot was installed, no temp file is left, the state is intact
    # and the log still takes appends.
    assert os.listdir(path.parent) == [path.name]
    assert fold.state(log) == before
    log.close()
    assert reopened_state(fold, path) == before
    log = fold.make(path)
    fold.add(log, 6)
    log.close()
    assert reopened_state(fold, path) == reference(fold, tmp_path, list(range(7)))


def test_indented_snapshot_recovers(fold, path, tmp_path):
    # A snapshot is one unindented line now; one written the old way,
    # through json.dump(..., indent=1), recovers to the same state.
    log = built(fold, path, 5)
    log.snapshot()
    fold.add(log, 5)  # a log tail past the snapshot
    expected = fold.state(log)
    log.close()
    snapshot = path.with_name(path.name + ".snap")
    body = json.loads(snapshot.read_text())
    assert snapshot.read_bytes().count(b"\n") == 0
    with open(snapshot, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
    assert snapshot.read_bytes().count(b"\n") > 1
    assert reopened_state(fold, path) == expected
    assert expected == reference(fold, tmp_path, list(range(6)))


def test_crash_between_snapshot_install_and_log_reset(fold, path, tmp_path, monkeypatch):
    # New snapshot + old log: replaying the old log over the snapshot only
    # over-delivers, so recovery is exact.
    log = built(fold, path, 6)
    before = fold.state(log)
    fail_replace_unless_snapshot(monkeypatch)
    with pytest.raises(OSError):
        log.snapshot()
    monkeypatch.undo()
    assert path.with_name(path.name + ".snap").exists()
    log.close()  # the process dies here
    recovered = fold.make(path)
    assert fold.state(recovered) == before
    fold.add(recovered, 6)
    recovered.close()
    assert reopened_state(fold, path) == reference(fold, tmp_path, list(range(7)))


def test_failed_log_reset_keeps_appending_to_old_log(fold, path, tmp_path, monkeypatch):
    # The reset fails in process (no crash): the old log is reopened, so no
    # append lands between a closed handle and a fresh one.
    log = built(fold, path, 6)
    fail_replace_unless_snapshot(monkeypatch)
    with pytest.raises(OSError):
        log.snapshot()
    monkeypatch.undo()
    fold.add(log, 6)
    expected = fold.state(log)
    log.close()
    assert expected == reference(fold, tmp_path, list(range(7)))
    assert reopened_state(fold, path) == expected


def test_zero_byte_log_recovers_empty(fold, path, tmp_path):
    path.write_bytes(b"")
    log = fold.make(path)
    assert fold.state(log) == reference(fold, tmp_path, [])
    assert path.read_bytes() == fold.fresh_header
    fold.add(log, 0)
    log.close()
    assert reopened_state(fold, path) == reference(fold, tmp_path, [0])


@pytest.mark.parametrize("target", ["header", "snapshot"])
def test_newer_format_is_rejected_naming_it(fold, path, target):
    newer = fold.format + 1
    if target == "header":
        path.write_text(json.dumps({"format": newer, "kind": fold.kind}) + "\n")
    else:
        snapshot = path.with_name(path.name + ".snap")
        snapshot.write_text(json.dumps({"format": newer, "kind": f"{fold.kind}-snapshot"}))
    with pytest.raises(TuningDatabaseError, match=f"format {newer}"):
        fold.make(path)


class HalfWrite:
    """A log handle whose write lands half the line, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def fail_next_append(log, how, monkeypatch):
    """Make the fold's next append fail after its whole line is written
    (the fsync raises) or after half of it (the write raises)."""
    if how == "torn":
        log._log._file = HalfWrite(log._log._file)
        return
    real_fsync = os.fsync
    failures = []

    def fsync_fails_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError(errno.EIO, "I/O error")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_fails_once)


@pytest.mark.parametrize("how", ["fsync", "torn"])
def test_failed_append_is_cut_back(fold, path, tmp_path, monkeypatch, how):
    # The file is left as it was and the log stays open.  The journal
    # stores nothing its file does not hold; the store published first.
    log = built(fold, path, 6, fsync_appends=True)
    before, on_disk = fold.state(log), path.read_bytes()
    fail_next_append(log, how, monkeypatch)
    with pytest.raises(OSError):
        fold.add(log, 6)
    monkeypatch.undo()
    assert not log.describe()["closed"]
    assert path.read_bytes() == on_disk
    written = reference(fold, tmp_path, list(range(7)))
    assert fold.state(log) == (written if fold.publishes_first else before)
    fold.add(log, 7)
    log.close()
    assert reopened_state(fold, path) == reference(fold, tmp_path, [*range(6), 7])


@pytest.mark.parametrize("how", ["fsync", "torn"])
def test_append_that_cannot_be_cut_back_is_fail_stop(
    fold, path, tmp_path, monkeypatch, how
):
    log = built(fold, path, 6, fsync_appends=True)
    before = fold.state(log)
    fail_next_append(log, how, monkeypatch)

    def truncate_fails(name, length):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(os, "truncate", truncate_fails)
    with pytest.raises(OSError):
        fold.add(log, 6)
    monkeypatch.undo()
    assert log.describe()["closed"]
    written = reference(fold, tmp_path, list(range(7)))
    assert fold.state(log) == (written if fold.publishes_first else before)
    with pytest.raises(TuningDatabaseError, match="closed"):
        fold.add(log, 7)
    # recover() reopens: a whole line replays, a torn one is truncated.
    log.recover()
    assert fold.state(log) == (written if how == "fsync" else before)
    kept = range(7 if how == "fsync" else 6)
    fold.add(log, 7)
    log.close()
    assert reopened_state(fold, path) == reference(fold, tmp_path, [*kept, 7])
