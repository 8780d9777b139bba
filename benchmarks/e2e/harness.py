"""Daemon child processes and the single-threaded load generator.

The daemon runs in a child process started through the stock CLI
(``python -m repro.service.daemonize --foreground``) or, for the traced run,
through ``traced_server.py``; the generator talks to it only through
``DaemonClient(SocketTransport(...))``.  Every child is SIGTERMed and reaped
when its ``Daemon`` context exits, on failure too.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.core.autotune.session import TuningResult
from repro.obs import Clock
from repro.service import DaemonClient, RequestError, SocketTransport, TuningRequest
from repro.service.errors import NotReady

E2E_DIR = Path(__file__).resolve().parent
SRC_DIR = E2E_DIR.parents[1] / "src"

#: the generator's poll sweep period (seconds).
POLL_INTERVAL = 0.01
#: how long a child may take to answer its first ping, or to drain.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 120.0
#: AF_UNIX paths are limited to 108 bytes including the terminator.
_MAX_SOCKET_PATH = 100


class Daemon:
    """One tuning daemon child serving ``<workdir>/daemon.sock``.

    ``trace_out`` starts the traced entry and names its span dump.  The
    journal, socket, pidfile and log all live in ``workdir``, so consecutive
    daemons on one workdir restart on the same journal.
    """

    def __init__(
        self,
        workdir: Path,
        clock: Clock,
        *,
        backend: str = "service",
        workers: int = 0,
        trace_out: Optional[Path] = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.clock = clock
        # Relative to the shared working directory: the absolute path of a
        # deep checkout can exceed the AF_UNIX limit.
        self.socket = os.path.relpath(self.workdir / "daemon.sock")
        if len(self.socket) > _MAX_SOCKET_PATH:
            raise ValueError(f"socket path {self.socket!r} is too long for AF_UNIX")
        args = [
            "--foreground",
            "--journal", str(self.workdir / "daemon.journal"),
            "--socket", self.socket,
            "--pidfile", str(self.workdir / "daemon.pid"),
            "--backend", backend,
            "--workers", str(workers),
        ]
        if trace_out is None:
            self.argv = [sys.executable, "-m", "repro.service.daemonize", *args]
        else:
            entry = str(E2E_DIR / "traced_server.py")
            self.argv = [sys.executable, entry, "--trace-out", str(trace_out), *args]
        self.log_path = self.workdir / "daemon.log"
        self.process: Optional[subprocess.Popen] = None
        self.setup_s = 0.0

    def __enter__(self) -> "Daemon":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH", "")) if p
        )
        started = self.clock.now()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self._wait_ready(started)
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_ready(self, started: float) -> None:
        ping = DaemonClient(SocketTransport(self.socket, timeout=5.0), max_attempts=1)
        while True:
            try:
                if ping.ping():
                    self.setup_s = self.clock.now() - started
                    return
            except ConnectionError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early:\n{self.log_tail()}")
            if self.clock.now() - started > START_TIMEOUT:
                raise RuntimeError(f"daemon did not answer a ping:\n{self.log_tail()}")
            time.sleep(0.002)  # pacing between ping attempts

    def stop(self) -> int:
        """SIGTERM (graceful drain) and reap; SIGKILL after
        :data:`STOP_TIMEOUT`.  Returns the exit code."""
        process, self.process = self.process, None
        if process is None:
            return 0
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            return process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            return process.wait()

    def __exit__(self, exc_type, *exc_info) -> None:
        code = self.stop()
        if code != 0 and exc_type is None:
            raise RuntimeError(f"daemon exited {code}:\n{self.log_tail()}")

    def log_tail(self, lines: int = 30) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return "(no daemon log)"
        return "\n".join(text.splitlines()[-lines:])


class TimedTransport:
    """A transport that sums the duration of the calls started in a window
    (the client half of the ``frontend.transport`` layer)."""

    def __init__(self, inner, clock: Clock) -> None:
        self.inner = inner
        self.clock = clock
        self.window = (float("inf"), float("inf"))
        self.calls = 0
        self.seconds = 0.0

    def call(self, op):
        start = self.clock.now()
        try:
            return self.inner.call(op)
        finally:
            if self.window[0] <= start < self.window[1]:
                self.calls += 1
                self.seconds += self.clock.now() - start


@dataclass
class Outcome:
    """One finished request as the generator saw it."""

    cls: str
    request: TuningRequest
    rid: Optional[str]
    latency_s: float
    result: Optional[TuningResult] = None
    error: Optional[str] = None


@dataclass
class Load:
    """One request class: ``k`` requests kept outstanding (closed loop) or,
    with ``period``, one request sent every ``period`` seconds (open loop)."""

    stream: Iterator[TuningRequest]
    k: int = 0
    period: float = 0.0


@dataclass
class _Slot:
    cls: str
    stream: Iterator[TuningRequest]
    #: open-loop slots carry one request, timed from when it was due.
    due: Optional[float] = None
    request: Optional[TuningRequest] = None
    rid: Optional[str] = None
    submitted: float = 0.0
    dry: bool = False


@dataclass
class LoopReport:
    outcomes: List[Outcome] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


def drive(
    client: DaemonClient,
    loads: Dict[str, Load],
    seconds: float,
    clock: Clock,
    transport: Optional[TimedTransport] = None,
) -> LoopReport:
    """Send each class's requests for ``seconds`` from one thread.

    ``client`` must poll once per ``result`` call (``poll_attempts=1``).  A
    sweep sends every due open-loop request, submits into every free
    closed-loop slot, then polls each outstanding request once; a sweep that
    finished nothing is followed by a pacing wait to the next
    :data:`POLL_INTERVAL` tick.  Latency runs from the submit call (open
    loop: from when the request was due) to the received result, per slot.
    Only requests finished inside the window are reported.  With closed
    loops only, the window closes early once every stream has run dry and
    every slot has finished.
    """
    slots = [
        _Slot(cls, load.stream)
        for cls, load in loads.items()
        if not load.period
        for _ in range(load.k)
    ]
    report = LoopReport(start=clock.now())
    end = report.start + seconds
    due = {cls: report.start for cls, load in loads.items() if load.period}
    if transport is not None:
        transport.window = (report.start, end)
    while True:
        sweep = clock.now()
        if sweep >= end:
            break
        for cls in due:
            while due[cls] <= sweep:
                slots.append(_Slot(cls, loads[cls].stream, due=due[cls]))
                due[cls] += loads[cls].period
        progressed = False
        for slot in list(slots):
            if slot.rid is None and not _submit(client, slot, clock, report, end):
                continue
            try:
                result = client.result(slot.rid)
            except RequestError as error:
                if isinstance(error.__cause__, NotReady):
                    continue
                _finish(slot, report, clock, end, error=f"{error.code}: {error}")
            else:
                _finish(slot, report, clock, end, result=result)
            progressed = True
        slots = [slot for slot in slots if slot.due is None or slot.request is not None]
        if not due and all(slot.dry and slot.rid is None for slot in slots):
            end = min(end, clock.now())
            break
        if not progressed:
            time.sleep(max(0.0, sweep + POLL_INTERVAL - clock.now()))  # pacing
    report.end = end
    return report


def _submit(client, slot: _Slot, clock: Clock, report: LoopReport, end: float) -> bool:
    """Submit the slot's next request; False when the slot has nothing
    outstanding afterwards (stream dry, or the submit was rejected)."""
    request = next(slot.stream, None)
    if request is None:
        slot.dry = True
        return False
    slot.request = request
    slot.submitted = clock.now() if slot.due is None else slot.due
    try:
        slot.rid = client.submit(request)
    except RequestError as error:
        _finish(slot, report, clock, end, error=f"{error.code}: {error}")
        return False
    return True


def _finish(slot: _Slot, report: LoopReport, clock: Clock, end: float, **outcome) -> None:
    now = clock.now()
    if now <= end:
        report.outcomes.append(
            Outcome(slot.cls, slot.request, slot.rid, now - slot.submitted, **outcome)
        )
    slot.request = None
    slot.rid = None
