"""Daemonised process wrapper around :class:`DaemonSocketServer`.

The deployment lifecycle the ROADMAP's daemon note promises, as one
module: double-fork/``setsid`` detachment (the daemon survives its
launching shell and controlling terminal), a pidfile with stale-pid
detection (a pidfile left behind by a SIGKILLed daemon never blocks the
next start), stdout/stderr redirection into a log file, and a SIGTERM
handler that drains gracefully — stop admissions, finish in-flight work,
stop the serving backend, snapshot the journal — before removing the
pidfile and exiting.

Two entry points:

* :func:`serve_forever` runs the server lifecycle **in the current
  process** (no forking): build daemon + server, write the pidfile, block
  until SIGTERM/SIGINT, drain, clean up.  This is the testable core, and
  what ``--foreground`` runs.
* :func:`daemonize` performs the classic double-fork/``setsid`` dance and
  then calls :func:`serve_forever` in the detached grandchild; the
  original caller returns immediately (the launching process, e.g. the
  CLI, exits 0 once the intermediate child has been reaped).

CLI (what ``make daemonize-smoke`` drives)::

    python -m repro.service.daemonize --journal /run/tuned.journal \\
        --socket /run/tuned.sock --pidfile /run/tuned.pid \\
        --log /var/log/tuned.log [--backend pool] [--workers 4]

The wrapper adds no fault-model machinery of its own: a SIGKILLed wrapper
is exactly a SIGKILLed daemon, recovered by the journal on the next start
(the stale pidfile is detected and replaced).  A failed journal write
stops serving with exit status 1 and no drain: restart the daemon (systemd
``Restart=on-failure``) and its recovery resumes from the journal.

Send SIGTERM to the daemon's pid only.  Pool workers keep the default
SIGTERM action, so a SIGTERM to the whole process group or cgroup (``kill
-- -PGID``, systemd's default ``KillMode=control-group``) kills them
mid-run: the drain still answers every request, but reruns the unfinished
ones serially in the daemon process.  Under systemd, set
``KillMode=mixed``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import Optional

from ..obs import MonotonicClock, Observability
from .daemon import TuningDaemon
from .frontend import DaemonSocketServer

__all__ = ["PidfileError", "daemonize", "serve_forever"]


class PidfileError(RuntimeError):
    """Another live daemon already owns the pidfile."""


def _check_pidfile(path: str) -> None:
    """Refuse to start when the pidfile names a live process; remove it
    when stale (the previous daemon was SIGKILLed and never cleaned up)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            pid = int(handle.read().strip())
    except FileNotFoundError:
        return
    except (OSError, ValueError):
        # Unreadable or garbled pidfile: treat as stale.
        _remove_quietly(path)
        return
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        _remove_quietly(path)  # stale: the pid is gone
    except PermissionError:
        raise PidfileError(
            f"pidfile {path!r} names live pid {pid} (owned by another user)"
        )
    else:
        raise PidfileError(f"pidfile {path!r} names live pid {pid}; refusing to start")


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _write_pidfile(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")


def _redirect_std_streams(log_path: str) -> None:
    """Point stdout/stderr (and stdin from devnull) at the log file at the
    file-descriptor level, so even C-level writes land in the log."""
    sys.stdout.flush()
    sys.stderr.flush()
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null_fd, 0)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    os.close(null_fd)


def serve_forever(
    journal: str,
    socket_path: str,
    pidfile: str,
    *,
    backend: str = "service",
    workers: int = 0,
    database_path: Optional[str] = None,
    max_active: int = 64,
    rate_limit: float = 0.0,
    burst: int = 16,
    default_timeout: Optional[float] = None,
    stop_event: Optional[threading.Event] = None,
    _daemon_factory=None,
) -> int:
    """The wrapper's in-process core: serve until SIGTERM, drain, exit.

    Claims the pidfile (stale-pid detection included), builds the daemon
    with a real ``MonotonicClock`` at this deployment edge, serves the
    socket, and blocks until SIGTERM or SIGINT arrives.  Graceful
    shutdown order — server stops accepting, daemon drains (in-flight
    work finishes, pool workers stop, journal snapshots), handles close,
    pidfile removed — so a SIGTERM'd wrapper leaves nothing behind but a
    compact journal.  Returns the process exit code: 0 after a drain, 1
    when a failed journal write stopped serving first.
    """
    # Accept pathlib.Path callers: AF_UNIX bind and the journal/pidfile io
    # below all want plain strings.
    journal = os.fspath(journal)
    socket_path = os.fspath(socket_path)
    pidfile = os.fspath(pidfile)
    _check_pidfile(pidfile)
    _write_pidfile(pidfile)
    terminated = stop_event if stop_event is not None else threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal handler shape
        terminated.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:
            # Not the main thread (tests drive shutdown via stop_event).
            break
    try:
        obs = Observability(enabled=True, clock=MonotonicClock())
        if _daemon_factory is not None:
            daemon = _daemon_factory()
        else:
            from ..core.autotune.database import TuningDatabase
            from .pool import TuningWorkerPool

            database = None
            if database_path is not None:
                # A restart must serve what earlier sessions tuned (and the
                # drain rewrites the file from this database).
                database = (
                    TuningDatabase.open(database_path)
                    if os.path.exists(database_path)
                    else TuningDatabase(path=database_path)
                )
            if backend == "pool-serial":
                resolved = _serial_pool(workers, obs=obs)
            elif backend == "pool" and workers:
                resolved = TuningWorkerPool(num_workers=workers, obs=obs)
            else:
                resolved = backend
            daemon = TuningDaemon(
                journal,
                backend=resolved,
                database=database,
                obs=obs,
                clock=obs.clock,
                max_active=max_active,
                rate_limit=rate_limit,
                burst=burst,
                default_timeout=default_timeout,
            )
        if os.path.exists(socket_path):
            _remove_quietly(socket_path)  # stale socket from a killed run
        server = DaemonSocketServer(daemon, socket_path).start()
        print(
            f"repro tuning daemon up: pid={os.getpid()} socket={socket_path} "
            f"journal={journal} backend={daemon.backend_kind}",
            flush=True,
        )
        # Timed: a SIGTERM the kernel hands to one of the server's threads
        # runs its Python handler only when the main thread next executes
        # bytecode, which an untimed wait would never let it do.
        while not terminated.wait(timeout=0.5):
            if server.fault is not None or daemon.journal.closed:
                break
        server.stop()
        if server.fault is not None or daemon.journal.closed:
            # A failed journal write: memory may be ahead of the journal, so
            # skip the drain; the restart recovers from the journal.
            daemon.close()
            cause = server.fault or "a failed write closed the journal"
            print(f"stopped without draining: {cause}", file=sys.stderr, flush=True)
            return 1
        print("SIGTERM: draining...", flush=True)
        summary = daemon.drain()
        daemon.close()
        print(f"drained cleanly: {summary}", flush=True)
        return 0
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        _remove_quietly(pidfile)
        _remove_quietly(socket_path)


def _serial_pool(workers: int, obs=None):
    """A deterministic in-process pool backend (used by tests/smoke runs
    where worker processes are unavailable or unwanted)."""
    from .pool import TuningWorkerPool

    return TuningWorkerPool(
        num_workers=max(1, workers), use_processes=False, obs=obs
    )


def daemonize(
    journal: str,
    socket_path: str,
    pidfile: str,
    log: str,
    **serve_kwargs,
) -> int:
    """Detach via double-fork/``setsid`` and serve in the grandchild.

    The first fork lets the caller continue (it reaps the intermediate
    child and returns 0); ``setsid`` in that child drops the controlling
    terminal; the second fork guarantees the grandchild can never
    reacquire one.  The grandchild redirects its std streams into ``log``
    and runs :func:`serve_forever`; its pidfile is the handle the outside
    world uses to SIGTERM it.
    """
    first = os.fork()
    if first > 0:
        os.waitpid(first, 0)  # reap the intermediate child immediately
        return 0
    # Intermediate child: new session, fork again, exit.
    os.setsid()
    second = os.fork()
    if second > 0:
        os._exit(0)
    # Grandchild: the daemon proper.
    exit_code = 1
    try:
        os.chdir("/")
        _redirect_std_streams(log)
        exit_code = serve_forever(journal, socket_path, pidfile, **serve_kwargs)
    except BaseException as exc:  # pragma: no cover - crash path
        try:
            print(f"daemon wrapper crashed: {type(exc).__name__}: {exc}", flush=True)
        except Exception:
            pass
    finally:
        os._exit(exit_code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.daemonize",
        description="Run the tuning daemon as a detached background process.",
    )
    parser.add_argument("--journal", required=True, help="request journal path")
    parser.add_argument("--socket", required=True, help="AF_UNIX socket path")
    parser.add_argument("--pidfile", required=True, help="pidfile path")
    parser.add_argument("--log", help="log file (required unless --foreground)")
    parser.add_argument(
        "--backend",
        default="service",
        choices=["service", "pool", "pool-serial"],
        help="tuning backend (pool-serial = in-process shards, deterministic)",
    )
    parser.add_argument("--workers", type=int, default=0, help="pool worker count")
    parser.add_argument("--database", default=None, help="persistent database path")
    parser.add_argument("--max-active", type=int, default=64)
    parser.add_argument("--rate-limit", type=float, default=0.0)
    parser.add_argument("--burst", type=int, default=16)
    parser.add_argument("--timeout", type=float, default=None, dest="default_timeout")
    parser.add_argument(
        "--foreground",
        action="store_true",
        help="skip the double-fork; serve in this process (for supervisors, "
        "which should SIGTERM this pid only, e.g. systemd KillMode=mixed)",
    )
    args = parser.parse_args(argv)
    serve_kwargs = dict(
        backend=args.backend,
        workers=args.workers,
        database_path=args.database,
        max_active=args.max_active,
        rate_limit=args.rate_limit,
        burst=args.burst,
        default_timeout=args.default_timeout,
    )
    if args.foreground:
        return serve_forever(args.journal, args.socket, args.pidfile, **serve_kwargs)
    if args.log is None:
        parser.error("--log is required when daemonizing (no terminal to write to)")
    return daemonize(args.journal, args.socket, args.pidfile, args.log, **serve_kwargs)


if __name__ == "__main__":
    raise SystemExit(main())
