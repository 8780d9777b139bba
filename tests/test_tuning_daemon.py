"""The always-on daemon's fault model, property-tested deterministically.

Everything here runs under :class:`FakeTransport` + ``FakeClock`` — zero
real sockets, zero real time — so the crash, overload and timeout
scenarios are exactly reproducible:

* the journal's lifecycle fold (snapshot compaction, replay-twice ==
  replay-once; its torn-tail and crash-window cases are in
  ``test_append_log.py``, shared with the record store),
* crash recovery (SIGKILL mid-request and mid-drain: done results
  re-serve bit-identically with **zero** re-measurement, in-flight
  requests replay idempotently through the keep-better database),
* admission control (queue depth and token bucket answer with typed
  ``RETRY_AFTER`` — a submit never hangs),
* per-request timeouts (cancelled cleanly, journaled ``failed(TIMEOUT)``),
* the client's retry discipline (overload -> backoff -> eventual success,
  transient transport faults, idempotent resubmit),
* the backend contract: the timeout, recovery and lifecycle cases run
  under both the in-process service and a deterministic serial pool.

The socket cases at the end use real ``AF_UNIX`` sockets: the server
against misbehaving clients, and the connection lifecycle (one connection
per client, a fresh one after any fault, ``stop()`` ends live ones).  The
one threaded test (socket server + concurrent clients + a kill) is marked
``slow`` and runs in the non-blocking stress CI job.
"""

import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro.conv import ConvParams
from repro.core.autotune import LogStore, TuningDatabase
from repro.core.autotune.store import TuningDatabaseError
from repro.gpusim import V100
from repro.obs import FakeClock, MonotonicClock, Observability
from repro.service import frontend
from repro.service import (
    DaemonClient,
    DaemonDraining,
    DaemonSocketServer,
    DeadlineExpired,
    FakeTransport,
    Overloaded,
    RequestCancelled,
    RequestJournal,
    RequestTimeout,
    SocketTransport,
    TuningDaemon,
    TuningRequest,
    TuningWorkerPool,
    UnknownRequest,
    request_from_wire,
    request_id,
    request_to_wire,
    result_from_wire,
    result_to_wire,
)

SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)


def _request(seed=0, budget=12, tuner="random", deadline=None):
    """A small deterministic request (random tuner: cheap, budget-exact)."""
    return TuningRequest(
        SMALL,
        V100,
        max_measurements=budget,
        seed=seed,
        pruned=False,
        tuner=tuner,
        deadline=deadline,
    )


def _sa_request(seed=0, budget=50, deadline=None):
    """One measurement per round — lets tests stop a run mid-flight."""
    return TuningRequest(
        SMALL,
        V100,
        max_measurements=budget,
        seed=seed,
        pruned=False,
        tuner="simulated_annealing",
        deadline=deadline,
    )


#: the daemon's backends, as the daemon resolves them by name.
BACKENDS = ("service", "pool")


def _backend(kind):
    """A fresh ``kind`` backend for one daemon: the service, or a
    deterministic two-shard serial pool.  Each restart needs its own."""
    if kind == "service":
        return kind
    return TuningWorkerPool(num_workers=2, use_processes=False)


def _trials(result):
    """Bit-comparable view of a result's trial list."""
    return [(t.index, t.config.as_dict(), t.time_seconds, t.gflops) for t in result.trials]


def _fail_next_fsync(monkeypatch, cut_back):
    """Make the next ``os.fsync`` fail once; unless ``cut_back``, also make
    every ``os.truncate`` fail, so the log cannot cut the line back off."""
    real_fsync = os.fsync
    failures = []

    def fsync_fails_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError("No space left on device")
        return real_fsync(fd)

    def truncate_fails(path, length):
        raise OSError("Read-only file system")

    monkeypatch.setattr(os, "fsync", fsync_fails_once)
    if not cut_back:
        monkeypatch.setattr(os, "truncate", truncate_fails)


class _WarpingClock(FakeClock):
    """A deliberately non-monotonic FakeClock: ``FakeClock.advance`` keeps
    its monotonic contract (negative advances raise), so backwards clock
    excursions — restarts with a different epoch, misbehaving injected
    clocks — are modelled by warping the reading directly."""

    def step_back(self, seconds: float) -> None:
        self._now -= float(seconds)


# -- wire codecs ---------------------------------------------------------- #
class TestWireCodecs:
    def test_request_round_trip(self):
        request = _request(seed=3, budget=7, deadline=9.5)
        wire = json.loads(json.dumps(request_to_wire(request)))
        assert request_from_wire(wire) == request
        assert request_from_wire(wire).deadline == 9.5

    def test_request_id_excludes_deadline(self):
        # deadline is compare=False scheduling metadata: same key, so a
        # retried submit with a refreshed deadline coalesces, not duplicates.
        assert request_id(_request(deadline=None)) == request_id(_request(deadline=5.0))
        assert request_id(_request(seed=0)) != request_id(_request(seed=1))

    def test_result_round_trip_preserves_invalid_trials(self):
        result = _request(budget=6).tune_direct()
        # Rewrite one trial as invalid (infinite time, the no-JSON-Infinity case).
        result.trials[0] = dataclasses.replace(result.trials[0], time_seconds=float("inf"))
        wire = json.loads(json.dumps(result_to_wire(result)))
        restored = result_from_wire(wire)
        assert _trials(restored) == _trials(result)
        assert restored.trials[0].time_seconds == float("inf")


# -- the journal ---------------------------------------------------------- #
class TestRequestJournal:
    def _journal(self, tmp_path, **kwargs):
        return RequestJournal(tmp_path / "requests.log", **kwargs)

    def test_lifecycle_round_trip(self, tmp_path):
        journal = self._journal(tmp_path)
        wire = request_to_wire(_request())
        assert journal.accept("r1", wire)
        assert not journal.accept("r1", wire)  # idempotent resubmit
        journal.mark_running("r1")
        journal.complete("r1", {"tuner": "x"})
        journal.close()
        recovered = self._journal(tmp_path)
        entry = recovered.get("r1")
        assert entry.status == "done"
        assert entry.result == {"tuner": "x"}
        assert entry.request == json.loads(json.dumps(wire))

    def test_terminal_state_is_sticky(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.accept("r1", {})
        journal.fail("r1", {"code": "TIMEOUT", "message": "late"})
        # Stale events after a terminal state are no-ops, never errors.
        assert not journal.mark_running("r1")
        assert not journal.complete("r1", {"tuner": "x"})
        assert journal.get("r1").status == "failed"

    def test_transition_on_unknown_rid_raises(self, tmp_path):
        journal = self._journal(tmp_path)
        with pytest.raises(TuningDatabaseError):
            journal.mark_running("ghost")

    def test_snapshot_compacts_and_recovers(self, tmp_path):
        journal = self._journal(tmp_path)
        for i in range(10):
            journal.accept(f"r{i}", {"i": i})
            journal.complete(f"r{i}", {"tuner": "x"})
        journal.snapshot()
        assert os.path.exists(journal.snapshot_path)
        # Post-snapshot the log is header-only: zero tail lines to replay.
        with open(journal.path, "r", encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1
        journal.close()
        recovered = self._journal(tmp_path)
        assert len(recovered) == 10
        assert all(e.status == "done" for e in recovered.states().values())

    def test_auto_snapshot_at_threshold(self, tmp_path):
        journal = self._journal(tmp_path, snapshot_min_entries=6)
        for i in range(5):
            journal.accept(f"r{i}", {})
            journal.complete(f"r{i}", {"tuner": "x"})
        assert os.path.exists(journal.snapshot_path)

    def test_replay_twice_equals_replay_once(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.accept("r1", {})
        journal.mark_running("r1")
        journal.accept("r2", {})
        journal.complete("r1", {"tuner": "x"})
        once = {rid: e.to_dict() for rid, e in journal.states().items()}
        journal.recover()
        journal.recover()
        twice = {rid: e.to_dict() for rid, e in journal.states().items()}
        assert once == twice

    def test_closed_journal_refuses_events(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.close()
        with pytest.raises(TuningDatabaseError):
            journal.accept("r1", {})


# -- protocol over FakeTransport ------------------------------------------ #
class TestProtocol:
    def test_submit_status_result(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        client = DaemonClient(FakeTransport(daemon))
        assert client.ping()
        request = _request(budget=8)
        rid = client.submit(request)
        assert rid == request_id(request)
        result = client.result(rid)
        assert client.status(rid)["state"] == "done"
        assert _trials(result) == _trials(request.tune_direct())
        assert daemon.stats.completed == 1

    def test_describe_reports_shape(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log", max_active=3)
        client = DaemonClient(FakeTransport(daemon))
        info = client.describe()
        assert info["kind"] == "TuningDaemon"
        assert info["admission"]["max_active"] == 3
        assert info["journal"]["entries"] == 0

    def test_unknown_rid_is_typed(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        client = DaemonClient(FakeTransport(daemon))
        with pytest.raises(UnknownRequest):
            client.status("nope")

    def test_malformed_ops_get_typed_replies(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        for op in ({"op": "frobnicate"}, {"op": "submit", "request": {}}, {}):
            reply = daemon.handle(op)
            assert reply["ok"] is False
            assert reply["error"]["code"] == "BAD_REQUEST"

    def test_submit_rejects_nonpositive_timeout(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        reply = daemon.handle(
            {"op": "submit", "request": request_to_wire(_request()), "timeout": 0.0}
        )
        assert reply["ok"] is False
        assert reply["error"]["code"] == "BAD_REQUEST"


# -- admission control ---------------------------------------------------- #
class TestAdmission:
    def test_queue_depth_overload_is_immediate(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log", max_active=1)
        daemon.submit(_sa_request(seed=0))
        with pytest.raises(Overloaded) as info:
            daemon.submit(_sa_request(seed=1))
        assert info.value.retry_after > 0
        assert daemon.stats.rejected_overload == 1

    def test_token_bucket_refills_from_the_clock(self, tmp_path):
        clock = FakeClock()
        daemon = TuningDaemon(
            tmp_path / "j.log", clock=clock, rate_limit=1.0, burst=1
        )
        daemon.submit(_request(seed=0))
        with pytest.raises(Overloaded):
            daemon.submit(_request(seed=1))
        clock.advance(1.0)  # one token back
        daemon.submit(_request(seed=1))
        assert daemon.stats.accepted == 2

    def test_expired_deadline_rejected_up_front(self, tmp_path):
        clock = FakeClock()
        clock.advance(100.0)
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock)
        with pytest.raises(DeadlineExpired):
            daemon.submit(_request(deadline=5.0))
        assert daemon.stats.rejected_deadline == 1
        assert len(daemon.journal) == 0  # never admitted, never journaled

    def test_draining_daemon_rejects_submits(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        rid = daemon.submit(_request(seed=0))
        daemon.drain()
        with pytest.raises(DaemonDraining):
            daemon.submit(_request(seed=1))
        # ...but keeps serving results for promises already made.
        assert daemon.status(rid)["state"] == "done"

    def test_idempotent_resubmit_coalesces(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        rid = daemon.submit(_request(seed=0))
        assert daemon.submit(_request(seed=0)) == rid
        assert daemon.stats.accepted == 1
        assert len(daemon.journal) == 1

    def test_backwards_clock_never_subtracts_tokens(self, tmp_path):
        """Regression: the token refill used the raw clock delta, so a
        clock stepping backwards (restart with a different epoch) would
        *subtract* tokens.  The delta is clamped at zero and the refill
        watermark keeps the max-seen reading, so a backwards excursion is
        also never re-credited as fresh elapsed time on recovery."""
        clock = _WarpingClock()
        daemon = TuningDaemon(
            tmp_path / "j.log", clock=clock, rate_limit=1.0, burst=2
        )
        daemon.submit(_request(seed=0))
        daemon.submit(_request(seed=1))  # burst exhausted
        clock.step_back(50.0)
        with pytest.raises(Overloaded):
            daemon.submit(_request(seed=2))  # going backwards earns nothing
        clock.advance(50.0)  # back at the watermark: still zero net elapsed
        with pytest.raises(Overloaded):
            daemon.submit(_request(seed=3))
        clock.advance(1.0)  # one real second past the watermark: one token
        daemon.submit(_request(seed=4))
        assert daemon.stats.accepted == 3

    def test_token_bucket_under_nonmonotonic_clock_property(self, tmp_path):
        """Property: over any warp sequence, accepts never exceed burst +
        net forward progress * rate — the bucket behaves as if it had only
        seen the monotonic envelope of the clock."""
        import random as _random

        rng = _random.Random(1234)
        clock = _WarpingClock()
        daemon = TuningDaemon(
            tmp_path / "j.log",
            clock=clock,
            rate_limit=1.0,
            burst=3,
            max_active=10_000,
        )
        accepted, high_water = 0, 0.0
        for seed in range(200):
            warp = rng.uniform(-2.0, 2.0)
            if warp >= 0:
                clock.advance(warp)
            else:
                clock.step_back(-warp)
            high_water = max(high_water, clock.now())
            try:
                daemon.submit(_request(seed=seed))
                accepted += 1
            except Overloaded:
                pass
            assert accepted <= 3 + high_water * 1.0 + 1e-9


# -- timeouts ------------------------------------------------------------- #
class TestTimeouts:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_timeout_cancels_and_journals_failed(self, tmp_path, kind):
        clock = FakeClock()
        daemon = TuningDaemon(tmp_path / "j.log", backend=_backend(kind), clock=clock)
        rid = daemon.submit(_sa_request(budget=500), timeout=5.0)
        daemon.tick()
        clock.advance(10.0)
        daemon.tick()
        assert daemon.stats.timeouts == 1
        assert daemon.metrics_snapshot().counters["daemon.backend.cancels"] == 1
        entry = daemon.journal.get(rid)
        assert entry.status == "failed"
        assert entry.error["code"] == "TIMEOUT"
        with pytest.raises(RequestTimeout):
            daemon.result(rid)
        assert daemon.queue_depth == 0  # the run was cancelled, not leaked
        daemon.close()

    def test_default_timeout_applies_to_bare_submits(self, tmp_path):
        clock = FakeClock()
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock, default_timeout=2.0)
        daemon.submit(_sa_request(budget=500))
        clock.advance(3.0)
        daemon.tick()
        assert daemon.stats.timeouts == 1

    def test_fast_request_beats_its_timeout(self, tmp_path):
        clock = FakeClock()
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock)
        rid = daemon.submit(_request(budget=6), timeout=100.0)
        daemon.run_until_idle()
        assert daemon.journal.get(rid).status == "done"
        assert daemon.stats.timeouts == 0

    def test_retry_with_shorter_timeout_tightens_expiry(self, tmp_path):
        """Regression: the idempotent-resubmit path used to drop the
        retry's ``timeout`` on the floor, so a retried submit asking for a
        shorter timeout kept the original (laxer) expiry.  The effective
        expiry is the min of the journaled promise's and the retry's."""
        clock = FakeClock()
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock)
        rid = daemon.submit(_sa_request(budget=500), timeout=100.0)
        assert daemon.submit(_sa_request(budget=500), timeout=1.0) == rid
        daemon.tick()
        clock.advance(5.0)  # past the retry's 1s, far from the original 100s
        daemon.tick()
        assert daemon.stats.timeouts == 1
        assert daemon.journal.get(rid).error["code"] == "TIMEOUT"

    def test_retry_with_longer_timeout_cannot_relax_expiry(self, tmp_path):
        """The dual: a promise only ever tightens by being asked again — a
        retried longer timeout must not resurrect an almost-expired run."""
        clock = FakeClock()
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock)
        rid = daemon.submit(_sa_request(budget=500), timeout=10.0)
        assert daemon.submit(_sa_request(budget=500), timeout=1000.0) == rid
        daemon.tick()
        clock.advance(50.0)  # past the original 10s, well inside 1000s
        daemon.tick()
        assert daemon.stats.timeouts == 1
        assert daemon.journal.get(rid).status == "failed"

    def test_retry_timeout_on_untimed_promise_arms_expiry(self, tmp_path):
        """A first submit without a timeout followed by a retry with one:
        min(None, retry) = the retry's expiry."""
        clock = FakeClock()
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock)
        rid = daemon.submit(_sa_request(budget=500))
        assert daemon.submit(_sa_request(budget=500), timeout=2.0) == rid
        daemon.tick()
        clock.advance(3.0)
        daemon.tick()
        assert daemon.stats.timeouts == 1
        assert daemon.journal.get(rid).status == "failed"


# -- crash recovery ------------------------------------------------------- #
class TestCrashRecovery:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_done_results_reserve_with_zero_measurements(self, tmp_path, kind):
        request = _request(budget=10)
        daemon = TuningDaemon(tmp_path / "j.log", backend=_backend(kind))
        rid = daemon.submit(request)
        daemon.run_until_idle()
        reference = _trials(result_from_wire(daemon.result(rid)))
        daemon.kill()

        restarted = TuningDaemon(tmp_path / "j.log", backend=_backend(kind))
        assert restarted.stats.recovered == 1
        assert restarted.stats.replayed == 0
        served = _trials(result_from_wire(restarted.result(rid)))
        assert served == reference  # bit-identical re-serve
        assert restarted.backend.stats.measurements == 0  # zero re-measurement
        restarted.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_sigkill_mid_request_replays_to_the_same_result(self, tmp_path, kind):
        request = _sa_request(budget=20)
        daemon = TuningDaemon(tmp_path / "j.log", backend=_backend(kind))
        rid = daemon.submit(request)
        daemon.tick()
        daemon.tick()  # partial progress, then SIGKILL
        daemon.kill()

        restarted = TuningDaemon(tmp_path / "j.log", backend=_backend(kind))
        assert restarted.stats.replayed == 1
        restarted.run_until_idle()
        replayed = result_from_wire(restarted.result(rid))
        assert _trials(replayed) == _trials(request.tune_direct())
        restarted.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_replay_checks_deadlines_on_the_daemon_clock(self, tmp_path, kind):
        # With observability off the backend's own clock always reads 0, so
        # only the daemon's clock can tell that the deadline passed while
        # the daemon was down.
        first = TuningDaemon(
            tmp_path / "j.log", backend=_backend(kind), clock=FakeClock(0.0)
        )
        rid = first.submit(_request(deadline=5.0))
        first.kill()  # before any tick: the promise is in flight
        restarted = TuningDaemon(
            tmp_path / "j.log", backend=_backend(kind), clock=FakeClock(10.0)
        )
        assert restarted.stats.replayed == 0
        assert restarted.status(rid)["error"]["code"] == "DEADLINE_EXPIRED"
        with pytest.raises(DeadlineExpired):
            restarted.result(rid)
        restarted.close()

    def test_sigkill_mid_drain_recovers(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        done_rid = daemon.submit(_request(seed=0, budget=8))
        daemon.run_until_idle()
        inflight = _sa_request(seed=1, budget=20)
        inflight_rid = daemon.submit(inflight)
        # Drain starts (admissions stop) but the process dies before the
        # in-flight work finishes: the journal tail is all that survives.
        with daemon._lock:
            daemon._draining = True
        daemon.tick()
        daemon.kill()

        restarted = TuningDaemon(tmp_path / "j.log")
        assert restarted.stats.replayed == 1
        restarted.run_until_idle()
        assert restarted.journal.get(done_rid).status == "done"
        assert _trials(result_from_wire(restarted.result(inflight_rid))) == _trials(
            inflight.tune_direct()
        )

    def test_restart_after_torn_journal_line(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        rid = daemon.submit(_request(budget=8))
        daemon.run_until_idle()
        daemon.kill()
        with open(str(tmp_path / "j.log"), "a", encoding="utf-8") as fh:
            fh.write('{"event": "accepted", "rid": "torn-')  # died mid-append
        restarted = TuningDaemon(tmp_path / "j.log")
        assert restarted.journal.get(rid).status == "done"
        assert len(restarted.journal) == 1  # the torn accept never happened

    @pytest.mark.parametrize("cut_back", [True, False], ids=["cut-back", "fail-stop"])
    def test_failed_journal_write_is_never_acknowledged(
        self, tmp_path, monkeypatch, cut_back
    ):
        # A journal write that fails (disk full, I/O error) must not leave a
        # promise behind in memory: the retry would be acknowledged off an
        # entry that may not be on disk, and lost at the next restart.
        daemon = TuningDaemon(tmp_path / "j.log", fsync_journal=True)
        acknowledged = [daemon.submit(_request(seed=0, budget=8))]
        daemon.run_until_idle()
        _fail_next_fsync(monkeypatch, cut_back)
        request = _request(seed=1, budget=8)
        with pytest.raises(OSError):
            daemon.submit(request)
        monkeypatch.undo()
        assert daemon.journal.get(request_id(request)) is None
        # The journal stays open when the failed line was cut back off the
        # file; otherwise it is closed and refuses the retry.
        assert daemon.describe()["journal"]["closed"] is not cut_back
        try:
            acknowledged.append(daemon.submit(request))  # the client's retry
        except TuningDatabaseError:
            assert not cut_back
        else:
            assert cut_back
        daemon.run_until_idle()
        for rid in acknowledged:
            assert daemon.status(rid)["state"] == "done"
        daemon.kill()
        restarted = TuningDaemon(tmp_path / "j.log")
        for rid in acknowledged:
            assert restarted.status(rid)["state"] == "done"

    def test_failed_auto_snapshot_never_fails_a_written_event(
        self, tmp_path, monkeypatch
    ):
        # The accept line is written before the automatic snapshot runs, so
        # the snapshot's failure must not fail the submit: the client's
        # retry would find the rid journaled with no run behind it.
        daemon = TuningDaemon(tmp_path / "j.log", snapshot_min_entries=1)
        request = _request(budget=8)
        _fail_next_fsync(monkeypatch, cut_back=True)  # the snapshot's fsync
        rid = daemon.submit(request)
        monkeypatch.undo()
        assert daemon.describe()["journal"]["snapshot_failures"] == 1
        daemon.run_until_idle()
        assert _trials(result_from_wire(daemon.result(rid))) == _trials(
            request.tune_direct()
        )
        daemon.close()

    def test_failed_completion_write_keeps_the_answer(self, tmp_path, monkeypatch):
        # The settled future is dropped only once its done line is written,
        # so a failed write leaves the answer for the next round to journal.
        daemon = TuningDaemon(tmp_path / "j.log", fsync_journal=True)
        rid = daemon.submit(_request(budget=8))
        _fail_next_fsync(monkeypatch, cut_back=True)
        with pytest.raises(OSError):
            while daemon.tick():
                pass
        monkeypatch.undo()
        assert daemon.status(rid)["state"] == "running"
        assert daemon.queue_depth == 1
        daemon.run_until_idle()
        assert daemon.status(rid)["state"] == "done"
        answer = daemon.result(rid)
        daemon.kill()
        assert TuningDaemon(tmp_path / "j.log").result(rid) == answer

    def test_log_store_database_keeps_serving_after_a_failed_put(
        self, tmp_path, monkeypatch
    ):
        # One failed durable put fails only its own run: the store cuts the
        # line back off its file and takes the next put.
        database = TuningDatabase(store=LogStore(tmp_path / "db.log", fsync_appends=True))
        daemon = TuningDaemon(tmp_path / "j.log", database=database)
        first, second = (
            dataclasses.replace(_request(budget=8), params=SMALL.with_batch(b), pruned=True)
            for b in (1, 2)
        )
        _fail_next_fsync(monkeypatch, cut_back=True)
        rid = daemon.submit(first)
        daemon.run_until_idle()
        monkeypatch.undo()
        assert daemon.status(rid)["state"] == "failed"
        rid = daemon.submit(second)
        daemon.run_until_idle()
        assert daemon.status(rid)["state"] == "done"
        daemon.kill()
        reopened = TuningDatabase.open(tmp_path / "db.log")
        assert [record.params for record in reopened.records()] == [second.params]

    def test_restart_twice_equals_restart_once(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        daemon.submit(_sa_request(budget=20))
        daemon.tick()
        daemon.kill()
        first = TuningDaemon(tmp_path / "j.log")
        first.kill()  # crash again before making progress
        second = TuningDaemon(tmp_path / "j.log")
        assert second.stats.replayed == 1
        second.run_until_idle()
        states = [e.status for e in second.journal.states().values()]
        assert states == ["done"]

    def test_client_survives_a_daemon_restart(self, tmp_path):
        request = _request(budget=8)
        daemon = TuningDaemon(tmp_path / "j.log")
        transport = FakeTransport(daemon)
        client = DaemonClient(transport, sleep=lambda _: None)
        rid = client.submit(request)
        daemon.run_until_idle()
        reference = _trials(client.result(rid))
        transport.kill()
        daemon.kill()
        with pytest.raises(ConnectionError):
            client.status(rid)
        transport.revive(TuningDaemon(tmp_path / "j.log"))
        # The retried submit is idempotent and the result re-serves.
        assert client.submit(request) == rid
        assert _trials(client.result(rid)) == reference


# -- client retry discipline ---------------------------------------------- #
class TestClientRetry:
    def test_overload_backs_off_and_succeeds(self, tmp_path):
        clock = FakeClock()
        daemon = TuningDaemon(
            tmp_path / "j.log", clock=clock, rate_limit=1.0, burst=1
        )
        # Backoff sleeps advance the fake clock, refilling the bucket.
        client = DaemonClient(FakeTransport(daemon), sleep=clock.advance)
        client.submit(_request(seed=0))
        client.submit(_request(seed=1))  # rejected, backs off, retried
        assert client.retries > 0
        assert daemon.stats.accepted == 2
        assert daemon.stats.rejected_overload > 0

    def test_overload_never_hangs_when_retries_exhaust(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log", max_active=1)
        client = DaemonClient(
            FakeTransport(daemon), max_attempts=3, sleep=lambda _: None
        )
        client.submit(_sa_request(seed=0))
        with pytest.raises(Overloaded):
            client.submit(_sa_request(seed=1))
        assert client.retries == 2  # bounded: max_attempts - 1

    def test_transient_transport_faults_are_retried(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        transport = FakeTransport(daemon)
        client = DaemonClient(transport, sleep=lambda _: None)
        transport.fail_next(2)
        assert client.ping()
        assert client.retries == 2

    def test_backoff_is_deterministic_and_floored_by_hint(self):
        client = DaemonClient(FakeTransport(None), jitter_seed=7)
        twin = DaemonClient(FakeTransport(None), jitter_seed=7)
        delays = [client._backoff_delay(a, None) for a in range(5)]
        assert delays == [twin._backoff_delay(a, None) for a in range(5)]
        assert all(d > 0 for d in delays)
        assert client._backoff_delay(0, 10.0) >= 10.0  # server hint floors

    def test_nonretryable_error_raises_immediately(self, tmp_path):
        clock = FakeClock()
        clock.advance(100.0)
        daemon = TuningDaemon(tmp_path / "j.log", clock=clock)
        transport = FakeTransport(daemon)
        client = DaemonClient(transport, sleep=lambda _: None)
        calls_before = transport.calls
        with pytest.raises(DeadlineExpired):
            client.submit(_request(deadline=5.0))
        assert transport.calls == calls_before + 1  # no retry


# -- telemetry ------------------------------------------------------------ #
class TestTelemetry:
    def test_daemon_metric_names(self, tmp_path):
        obs = Observability(enabled=True, clock=MonotonicClock())
        daemon = TuningDaemon(tmp_path / "j.log", obs=obs)
        daemon.submit(_request(budget=6))
        daemon.run_until_idle()
        counters = daemon.metrics_snapshot().counters
        assert counters["daemon.accepted"] == 1
        assert counters["daemon.completed"] == 1
        # Gauge snapshots report the high-water mark (deepest queue seen).
        assert daemon.metrics_snapshot().gauges["daemon.queue_depth"] == 1
        assert daemon.queue_depth == 0
        histos = obs.registry.snapshot().histograms
        assert histos["daemon.request_latency_seconds"].total == 1

    def test_stats_describe_is_stable(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "j.log")
        daemon.submit(_request(budget=6))
        daemon.run_until_idle()
        assert daemon.stats.describe() == (
            "DaemonStats[1 accepted (0 rejected), 1 done / 0 failed "
            "(0 timeouts), 0 replayed of 0 recovered]"
        )


# -- backends -------------------------------------------------------------- #
class TestBackends:
    """`TuningDaemon(backend=...)`: one contract, whichever backend serves
    it (the timeout and recovery cases above run under both; the process
    fleet's own variants live in the pool's test file)."""

    def test_pool_backend_is_bit_identical_to_service(self, tmp_path):
        requests = [_request(seed=seed, budget=8) for seed in range(4)]
        service_daemon = TuningDaemon(tmp_path / "svc.log")
        svc_rids = [service_daemon.submit(r) for r in requests]
        service_daemon.run_until_idle()
        svc = [service_daemon.result(rid) for rid in svc_rids]
        svc_measured = service_daemon.backend.stats.measurements
        service_daemon.close()

        pool = _backend("pool")
        pool_daemon = TuningDaemon(tmp_path / "pool.log", backend=pool)
        pool_rids = [pool_daemon.submit(r) for r in requests]
        pool_daemon.run_until_idle()
        assert pool_rids == svc_rids  # same rids: the digest ignores backends
        # Same results (wire-identical) for the same measurement spend.
        assert [pool_daemon.result(rid) for rid in pool_rids] == svc
        assert pool.stats.measurements == svc_measured
        pool_daemon.drain()
        pool_daemon.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_fleet_snapshot_merges_each_half_once(self, tmp_path, kind):
        obs = Observability(enabled=True, clock=FakeClock())
        daemon = TuningDaemon(tmp_path / "j.log", backend=kind, obs=obs)
        daemon.submit(_request(budget=6))
        daemon.run_until_idle()
        fleet = daemon.fleet_snapshot()
        assert fleet.counters["daemon.backend.submits"] == 1
        assert fleet.counters["daemon.backend.steps"] >= 1
        assert fleet.counters[f"{kind}.requests"] == 1  # the backend's half
        # The obs registry daemon and backend share is merged exactly once.
        assert fleet.histograms["daemon.request_latency_seconds"].total == 1
        description = daemon.describe()
        assert description["backend"] == kind
        assert description[kind]["kind"] == type(daemon.backend).__name__
        assert ({"service", "pool"} - {kind}).isdisjoint(description)
        daemon.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_drain_stops_and_close_terminates_the_backend(
        self, tmp_path, kind, monkeypatch
    ):
        drained = TuningDaemon(tmp_path / "d.log", backend=_backend(kind))
        rid = drained.submit(_request(budget=6))
        stop, stops = drained.backend.stop, []
        monkeypatch.setattr(drained.backend, "stop", lambda: stops.append(stop()))
        drained.drain()
        assert len(stops) == 1
        assert drained.status(rid)["state"] == "done"
        drained.close()

        closed = TuningDaemon(tmp_path / "c.log", backend=_backend(kind))
        rid = closed.submit(_sa_request(budget=500))
        closed.tick()
        future = closed._futures[rid]
        terminate, terminates = closed.backend.terminate, []
        monkeypatch.setattr(
            closed.backend, "terminate", lambda: terminates.append(terminate())
        )
        closed.close()
        assert len(terminates) == 1
        with pytest.raises(RequestCancelled):
            future.result(timeout=0)  # failed, not left running

    def test_invalid_backend_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            TuningDaemon(tmp_path / "j.log", backend="bogus")


# -- transport robustness -------------------------------------------------- #
def _sendall_then_close(path, payload):
    """One raw client interaction: send bytes, read best-effort, close."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    reply = b""
    try:
        sock.connect(path)
        if payload:
            sock.sendall(payload)
        try:
            reply = sock.recv(65536)
        except (OSError, socket.timeout):
            pass
    finally:
        sock.close()
    return reply


class TestReadLine:
    """frontend._read_line against every truncated reply shape: all of them
    must surface as ConnectionError (retryable transport fault), never as a
    JSON decode error escaping to the caller."""

    def _pair(self):
        server, client = socket.socketpair()
        server.settimeout(5.0)
        client.settimeout(5.0)
        return server, client

    def test_whole_line_round_trips(self):
        server, client = self._pair()
        try:
            server.sendall(b'{"ok": true}\n')
            assert frontend._read_line(client) == b'{"ok": true}\n'
        finally:
            server.close()
            client.close()

    def test_midline_disconnect_raises_connection_error(self):
        server, client = self._pair()
        try:
            server.sendall(b'{"ok": tr')  # partial line...
            server.close()  # ...then the peer dies
            with pytest.raises(ConnectionError, match="mid-line"):
                frontend._read_line(client)
        finally:
            client.close()

    def test_immediate_close_raises_connection_error(self):
        server, client = self._pair()
        server.close()
        try:
            with pytest.raises(ConnectionError, match="before a reply"):
                frontend._read_line(client)
        finally:
            client.close()

    def test_slow_two_chunk_line_is_reassembled(self):
        server, client = self._pair()
        try:
            received = {}
            reader = threading.Thread(
                target=lambda: received.update(line=frontend._read_line(client)),
                daemon=True,
            )
            reader.start()
            server.sendall(b'{"ok": ')
            time.sleep(0.05)  # pacing: let the reader see a partial buffer
            server.sendall(b"true}\n")
            reader.join(timeout=5.0)
            assert received["line"] == b'{"ok": true}\n'
        finally:
            server.close()
            client.close()


class TestSocketServerRobustness:
    """DaemonSocketServer vs misbehaving clients: the connection thread may
    drop the client, but the server must keep serving everyone else."""

    def _serving(self, tmp_path, **kwargs):
        path = str(tmp_path / "robust.sock")
        daemon = TuningDaemon(tmp_path / "robust.journal")
        server = DaemonSocketServer(daemon, path, **kwargs).start()
        return path, daemon, server

    def _assert_still_serving(self, path):
        transport = SocketTransport(path, timeout=5.0)
        try:
            assert DaemonClient(transport).ping()
        finally:
            transport.close()

    def test_partial_line_then_disconnect(self, tmp_path):
        path, daemon, server = self._serving(tmp_path)
        try:
            reply = _sendall_then_close(path, b'{"op": "pi')  # no newline
            assert reply == b""  # no line, no reply — just a dropped buffer
            self._assert_still_serving(path)
        finally:
            server.stop()
            daemon.close()

    def test_empty_write_then_disconnect(self, tmp_path):
        path, daemon, server = self._serving(tmp_path)
        try:
            _sendall_then_close(path, b"")
            self._assert_still_serving(path)
        finally:
            server.stop()
            daemon.close()

    def test_oversized_line_gets_bad_request_and_disconnect(self, tmp_path):
        path, daemon, server = self._serving(tmp_path, max_line_bytes=1024)
        try:
            reply = _sendall_then_close(path, b"x" * 4096)  # no newline ever
            assert b"BAD_REQUEST" in reply
            assert b"exceeds" in reply
            self._assert_still_serving(path)
        finally:
            server.stop()
            daemon.close()

    def test_undecodable_line_keeps_the_connection(self, tmp_path):
        path, daemon, server = self._serving(tmp_path)
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            try:
                sock.connect(path)
                sock.sendall(b"not json at all\n")
                bad = frontend._read_line(sock)
                assert b"BAD_REQUEST" in bad
                # Same connection still serves well-formed ops.
                sock.sendall(frontend.encode_line({"op": "ping"}))
                good = frontend._read_line(sock)
                assert b'"pong"' in good
            finally:
                sock.close()
            self._assert_still_serving(path)
        finally:
            server.stop()
            daemon.close()

    def test_slow_client_split_op_is_served(self, tmp_path):
        path, daemon, server = self._serving(tmp_path)
        try:
            wire = frontend.encode_line({"op": "ping"})
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            try:
                sock.connect(path)
                sock.sendall(wire[: len(wire) // 2])
                time.sleep(0.05)  # pacing: land as two separate recvs
                sock.sendall(wire[len(wire) // 2 :])
                reply = frontend._read_line(sock)
                assert b'"pong"' in reply
            finally:
                sock.close()
        finally:
            server.stop()
            daemon.close()


def _count_connections(monkeypatch):
    """Record the thread of every ``DaemonSocketServer._serve_connection``
    entry, i.e. one per server-side connection."""
    entered = []
    serve = DaemonSocketServer._serve_connection

    def counted(self, conn):
        entered.append(threading.current_thread())
        return serve(self, conn)

    monkeypatch.setattr(DaemonSocketServer, "_serve_connection", counted)
    return entered


def _scripted_server(path, handlers):
    """A test-local server: its ``i``-th connection is served by
    ``handlers[i](conn)`` on a thread of its own.  Returns the threads'
    list, which grows as connections arrive."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(4)
    listener.settimeout(5.0)
    threads = []

    def accept():
        with listener:
            for handler in handlers:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                thread = threading.Thread(target=handler, args=(conn,), daemon=True)
                threads.append(thread)
                thread.start()

    acceptor = threading.Thread(target=accept, daemon=True)
    threads.append(acceptor)
    acceptor.start()
    return threads


def _echo(conn, *, hold=None, cut=False):
    """Answer each op line with ``{"ok": true, "pong": true, "echo": <op
    name>}`` until the client hangs up.  The first reply waits for the
    ``hold`` event; with ``cut``, only its first half is sent, then the
    connection is closed."""
    with conn:
        first = True
        while True:
            try:
                op = frontend.decode_line(frontend._read_line(conn))
            except OSError:
                return  # the client hung up
            if first and hold is not None:
                hold.wait(timeout=5.0)
            line = frontend.encode_line({"ok": True, "pong": True, "echo": op["op"]})
            try:
                if first and cut:
                    conn.sendall(line[: len(line) // 2])
                    return
                conn.sendall(line)
            except OSError:
                return  # the client gave up on this connection
            first = False


class TestSocketConnections:
    """One connection per client: a transport keeps its connection across
    calls, drops it on any fault, and ``stop()`` ends the live ones."""

    def test_one_client_opens_one_connection(self, tmp_path, monkeypatch):
        entered = _count_connections(monkeypatch)
        path = str(tmp_path / "d.sock")
        daemon = TuningDaemon(tmp_path / "j.log")
        server = DaemonSocketServer(daemon, path).start()
        transport = SocketTransport(path, timeout=5.0)
        try:
            client = DaemonClient(transport, backoff=0.001)
            for _ in range(50):
                assert client.ping()
            request = _request(budget=8)
            rid = client.submit(request)
            assert _trials(client.result(rid)) == _trials(request.tune_direct())
        finally:
            transport.close()
            server.stop()
            daemon.close()
        assert len(entered) == 1

    def test_stop_ends_live_connections(self, tmp_path, monkeypatch):
        entered = _count_connections(monkeypatch)
        path = str(tmp_path / "d.sock")
        daemon = TuningDaemon(tmp_path / "j.log")
        server = DaemonSocketServer(daemon, path).start()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(1.0)
        try:
            sock.connect(path)
            sock.sendall(frontend.encode_line({"op": "ping"}))
            assert b'"pong"' in frontend._read_line(sock)
            server.stop()
            assert sock.recv(65536) == b""  # EOF, not a timeout
        finally:
            sock.close()
            server.stop()
            daemon.close()
        assert len(entered) == 1
        assert not any(thread.is_alive() for thread in entered)

    def test_client_reconnects_to_a_restarted_daemon(self, tmp_path):
        path = str(tmp_path / "d.sock")
        request = _request(budget=8)
        daemon = TuningDaemon(tmp_path / "j.log")
        server = DaemonSocketServer(daemon, path).start()
        transport = SocketTransport(path, timeout=5.0)
        client = DaemonClient(transport, backoff=0.001)
        try:
            rid = client.submit(request)
            server.stop()
            daemon.kill()
            os.unlink(path)
            daemon = TuningDaemon(tmp_path / "j.log")
            server = DaemonSocketServer(daemon, path).start()
            # The old connection is dead: the first call on it fails, and
            # the client's retry reconnects to the recovered daemon.
            assert _trials(client.result(rid)) == _trials(request.tune_direct())
            assert client.retries >= 1
        finally:
            transport.close()
            server.stop()
            daemon.close()

    def test_timed_out_reply_is_never_read_as_the_next(self, tmp_path):
        path = str(tmp_path / "late.sock")
        late = threading.Event()
        threads = _scripted_server(
            path, [lambda conn: _echo(conn, hold=late), _echo]
        )
        transport = SocketTransport(path, timeout=0.2)
        try:
            with pytest.raises(ConnectionError):
                transport.call({"op": "first"})
            late.set()  # the first reply goes out after the client gave up
            transport.timeout = 5.0  # only the first call is meant to time out
            assert transport.call({"op": "second"})["echo"] == "second"
        finally:
            transport.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_truncated_reply_reconnects(self, tmp_path):
        path = str(tmp_path / "cut.sock")
        threads = _scripted_server(
            path, [lambda conn: _echo(conn, cut=True), _echo]
        )
        transport = SocketTransport(path, timeout=5.0)
        client = DaemonClient(transport, sleep=lambda _: None)
        try:
            assert client.ping()
            assert client.retries == 1
        finally:
            transport.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert len(threads) == 3  # the acceptor and two connections
        assert not any(thread.is_alive() for thread in threads)


# -- stress (non-blocking CI job) ----------------------------------------- #
@pytest.mark.slow
class TestDaemonStress:
    def test_concurrent_clients_with_a_daemon_kill(self, tmp_path):
        """Socket server, concurrent clients, one SIGKILL + restart.

        Every client must end with the bit-identical direct-tuning result
        for its request — despite racing submits, polls, transport faults
        from the kill window, and the restart replay."""
        path = str(tmp_path / "daemon.sock")
        journal = tmp_path / "j.log"
        requests = [_request(seed=seed, budget=10) for seed in range(6)]
        references = [_trials(r.tune_direct()) for r in requests]

        daemon = TuningDaemon(journal)
        server = DaemonSocketServer(daemon, path).start()
        results = {}
        errors = []

        def worker(index, request):
            client = DaemonClient(
                SocketTransport(path, timeout=10.0),
                max_attempts=60,
                backoff=0.01,
                backoff_cap=0.2,
                jitter_seed=index,
            )
            try:
                results[index] = _trials(client.submit_and_wait(request))
            except Exception as exc:  # surfaced after join
                errors.append((index, exc))

        threads = [
            threading.Thread(target=worker, args=(i, r), daemon=True)
            for i, r in enumerate(requests)
        ]
        for thread in threads:
            thread.start()
        # Kill the daemon while clients are mid-flight, then restart it on
        # the same journal: clients retry through the outage and land on
        # the recovered daemon.
        threads[0].join(timeout=30.0)  # let at least one finish first
        server.stop()
        daemon.kill()
        restarted = TuningDaemon(journal)
        server = DaemonSocketServer(restarted, path + ".2").start()
        # Clients still target the old path; re-bind it to the new daemon.
        server2 = DaemonSocketServer(restarted, path)
        os.unlink(path)
        server2.start()
        for thread in threads:
            thread.join(timeout=60.0)
        server.stop()
        server2.stop()
        assert not errors, errors
        assert results == {i: ref for i, ref in enumerate(references)}
