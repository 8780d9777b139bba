"""The daemonised process wrapper: pidfile discipline, lifecycle, smoke.

The fast tests drive :func:`repro.service.daemonize.serve_forever` in a
thread with an injected ``stop_event`` (no forking, no signals); the
``slow``-marked smoke test runs the real CLI — double-fork/setsid
detachment, a submit over the unix socket, SIGTERM, clean drain and
pidfile removal — exactly what ``make daemonize-smoke`` gates.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.conv import ConvParams
from repro.core.autotune import TuningDatabase
from repro.gpusim import V100
from repro.service import (
    DaemonClient,
    PidfileError,
    SocketTransport,
    TuningDaemon,
    TuningRequest,
    result_from_wire,
    serve_forever,
)
from repro.service.daemonize import _check_pidfile

SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)


def _request(seed=0, budget=6):
    return TuningRequest(
        SMALL, V100, max_measurements=budget, seed=seed, pruned=True, tuner="random"
    )


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


def _env():
    """The environment for a child Python that imports this checkout."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_for(predicate, timeout=20.0, interval=0.05):
    deadline_polls = max(1, int(timeout / interval))
    for _ in range(deadline_polls):
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Wrapper:
    """serve_forever in a thread, shutdown via the injected stop event."""

    def __init__(self, tmp_path, **kwargs):
        self.journal = str(tmp_path / "daemon.journal")
        self.socket = str(tmp_path / "daemon.sock")
        self.pidfile = str(tmp_path / "daemon.pid")
        self.stop_event = threading.Event()
        self.exit_code = None

        def run():
            self.exit_code = serve_forever(
                self.journal,
                self.socket,
                self.pidfile,
                stop_event=self.stop_event,
                **kwargs,
            )

        self.thread = threading.Thread(target=run, daemon=True)

    def __enter__(self):
        self.thread.start()
        assert _wait_for(lambda: os.path.exists(self.socket)), "socket never bound"
        return self

    def __exit__(self, *exc):
        self.stop_event.set()
        self.thread.join(timeout=30)


class TestServeForever:
    def test_lifecycle_pool_backend(self, tmp_path, capsys):
        with _Wrapper(tmp_path, backend="pool-serial", workers=2) as wrapper:
            assert os.path.exists(wrapper.pidfile)
            with open(wrapper.pidfile) as handle:
                assert int(handle.read().strip()) == os.getpid()
            client = DaemonClient(SocketTransport(wrapper.socket))
            assert client.ping()
            result = client.submit_and_wait(_request())
            assert result.num_measurements == 6
        assert wrapper.exit_code == 0
        # Clean shutdown removed both the pidfile and the socket.
        assert not os.path.exists(wrapper.pidfile)
        assert not os.path.exists(wrapper.socket)

    def test_database_file_is_reloaded_on_restart(self, tmp_path):
        database_path = str(tmp_path / "tuning.json")
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        with _Wrapper(first, database_path=database_path) as wrapper:
            client = DaemonClient(SocketTransport(wrapper.socket))
            tuned = client.submit_and_wait(_request())
        assert tuned.num_measurements == 6
        # A fresh journal: only the database file can answer the repeat.
        with _Wrapper(second, database_path=database_path) as wrapper:
            client = DaemonClient(SocketTransport(wrapper.socket))
            repeat = client.submit_and_wait(_request())
            measured = client.describe()["service"]["stats"]["measurements"]
        assert repeat.from_cache and measured == 0
        assert repeat.best_time == tuned.best_time
        # The second drain rewrote the file without losing the first record.
        record = TuningDatabase.open(database_path).lookup(SMALL, V100, "direct")
        assert record is not None and record.time_seconds == tuned.best_time

    def test_closed_journal_stops_serving_with_exit_1(self, tmp_path, monkeypatch):
        # A journal write that fails and cannot be cut back off the file
        # closes the journal: serving stops without a drain, the exit code
        # asks for a restart, and the restart serves what was acknowledged.
        journal = str(tmp_path / "daemon.journal")
        daemons = []

        def factory():
            daemons.append(TuningDaemon(journal, fsync_journal=True))
            return daemons[-1]

        def fails(*args):
            raise OSError("Read-only file system")

        with _Wrapper(tmp_path, _daemon_factory=factory) as wrapper:
            client = DaemonClient(SocketTransport(wrapper.socket))
            rid = client.submit(_request())
            answer = client.result(rid)
            monkeypatch.setattr(os, "fsync", fails)
            monkeypatch.setattr(os, "truncate", fails)
            with pytest.raises(OSError):
                daemons[0].submit(_request(seed=1))
            monkeypatch.undo()
            assert _wait_for(lambda: wrapper.exit_code is not None)
        assert wrapper.exit_code == 1
        assert not os.path.exists(wrapper.pidfile)
        served = result_from_wire(TuningDaemon(journal).result(rid))
        assert _trajectory(served) == _trajectory(answer)

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_failed_scheduling_round_stops_serving_with_exit_1(self, tmp_path):
        daemons = []

        def factory():
            daemons.append(TuningDaemon(str(tmp_path / "daemon.journal")))
            return daemons[-1]

        def tick():
            raise OSError("No space left on device")

        with _Wrapper(tmp_path, _daemon_factory=factory) as wrapper:
            daemons[0].tick = tick
            assert _wait_for(lambda: wrapper.exit_code is not None)
        assert wrapper.exit_code == 1
        assert not os.path.exists(wrapper.socket)

    def test_live_pidfile_refuses_start(self, tmp_path):
        with _Wrapper(tmp_path, backend="service") as wrapper:
            with pytest.raises(PidfileError):
                serve_forever(
                    wrapper.journal,
                    str(tmp_path / "other.sock"),
                    wrapper.pidfile,  # names this live process
                    stop_event=threading.Event(),
                )
        assert wrapper.exit_code == 0

    def test_sigterm_on_a_server_thread_drains(self, tmp_path):
        """The kernel may hand a process-directed SIGTERM to any thread that
        does not block it.  Aimed at a non-main thread on purpose, it must
        still wake the main thread and drain (an untimed wait hung here)."""
        script = (
            "import os, signal, sys, threading, time\n"
            "from repro.service.daemonize import serve_forever\n"
            "journal, sock, pidfile = sys.argv[1:4]\n"
            "def kick():\n"
            "    while not os.path.exists(sock):\n"
            "        time.sleep(0.01)\n"
            "    time.sleep(0.2)  # let the main thread block in its wait\n"
            "    signal.pthread_kill(threading.get_ident(), signal.SIGTERM)\n"
            "threading.Thread(target=kick, daemon=True).start()\n"
            "sys.exit(serve_forever(journal, sock, pidfile))\n"
        )
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(tmp_path / "d.journal"),
                str(tmp_path / "d.sock"),
                str(tmp_path / "d.pid"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=_env(),
        )
        assert done.returncode == 0, done.stderr
        assert "drained cleanly" in done.stdout
        assert not os.path.exists(tmp_path / "d.pid")

    def test_process_group_sigterm_still_drains(self, tmp_path):
        """Pool workers keep the default SIGTERM action, so a SIGTERM to the
        daemon's whole process group (what a supervisor stopping a cgroup
        sends) kills them mid-run.  The drain must still answer every
        request — their shards fail over to the daemon process — and exit
        cleanly, with results a restart re-serves bit-identically."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        wrapper = _Wrapper(tmp_path)  # the same file names for the restart
        command = [
            sys.executable, "-m", "repro.service.daemonize", "--foreground",
            "--journal", wrapper.journal, "--socket", wrapper.socket,
            "--pidfile", wrapper.pidfile, "--backend", "pool", "--workers", "2",
        ]
        # Unpruned ATE runs (~0.2 s each) that no database record can answer.
        requests = [
            TuningRequest(SMALL, V100, max_measurements=48, seed=seed, pruned=False)
            for seed in range(4)
        ]
        daemon = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            start_new_session=True,  # its own process group, workers included
        )
        try:
            assert _wait_for(lambda: os.path.exists(wrapper.socket))
            client = DaemonClient(SocketTransport(wrapper.socket))
            if client.describe()["pool"]["mode"] != "processes":
                pytest.skip("worker processes unavailable in this environment")
            for request in requests:
                client.submit(request)
            os.killpg(daemon.pid, signal.SIGTERM)
            out, err = daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                os.killpg(daemon.pid, signal.SIGKILL)
                daemon.communicate()
        assert daemon.returncode == 0, err
        assert "drained cleanly" in out and "'pending': 0" in out
        assert not os.path.exists(wrapper.pidfile)
        with wrapper:
            client = DaemonClient(SocketTransport(wrapper.socket))
            for request in requests:
                result = client.submit_and_wait(request)
                assert _trajectory(result) == _trajectory(request.tune_direct())
            measured = client.describe()["service"]["stats"]["measurements"]
        assert measured == 0  # journal re-serves, nothing re-tuned

    def test_stale_pidfile_is_replaced(self, tmp_path):
        pidfile = str(tmp_path / "stale.pid")
        with open(pidfile, "w") as handle:
            handle.write("999999999\n")  # beyond pid_max: guaranteed dead
        _check_pidfile(pidfile)
        assert not os.path.exists(pidfile)

    def test_garbled_pidfile_is_replaced(self, tmp_path):
        pidfile = str(tmp_path / "garbled.pid")
        with open(pidfile, "w") as handle:
            handle.write("not a pid\n")
        _check_pidfile(pidfile)
        assert not os.path.exists(pidfile)


@pytest.mark.slow
class TestDaemonizeSmoke:
    def test_daemonize_cli_sigterm_drains_cleanly(self, tmp_path):
        """The `make daemonize-smoke` scenario, end to end: launch the CLI
        (double-fork detach), tune over the socket, SIGTERM the pid from
        the pidfile, and assert a clean drain — pidfile and socket gone,
        the drain summary in the log."""
        journal = str(tmp_path / "d.journal")
        sock = str(tmp_path / "d.sock")
        pidfile = str(tmp_path / "d.pid")
        log = str(tmp_path / "d.log")
        launcher = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.service.daemonize",
                "--journal",
                journal,
                "--socket",
                sock,
                "--pidfile",
                pidfile,
                "--log",
                log,
                "--backend",
                "pool-serial",
                "--workers",
                "2",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=_env(),
        )
        assert launcher.returncode == 0, launcher.stderr
        assert _wait_for(lambda: os.path.exists(sock)), "daemon socket never bound"
        assert os.path.exists(pidfile)
        with open(pidfile) as handle:
            pid = int(handle.read().strip())
        assert pid > 0  # the detached grandchild, not the exited launcher
        client = DaemonClient(SocketTransport(sock))
        assert client.ping()
        result = client.submit_and_wait(_request(seed=3))
        assert result.num_measurements == 6
        os.kill(pid, signal.SIGTERM)
        assert _wait_for(
            lambda: not os.path.exists(pidfile)
        ), "pidfile survived SIGTERM"
        assert _wait_for(lambda: not os.path.exists(sock))
        with open(log) as handle:
            text = handle.read()
        assert "drained cleanly" in text
