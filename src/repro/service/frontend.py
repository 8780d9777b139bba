"""The daemon's front door: line-delimited JSON protocol, transports, client.

One request/reply pair per line.  Ops are JSON objects with an ``"op"``
discriminator (``ping`` / ``describe`` / ``submit`` / ``status`` /
``result`` / ``drain``); replies are ``{"ok": true, ...}`` or ``{"ok":
false, "error": {"code", "message"[, "retry_after"]}}`` with the typed
error codes of :mod:`repro.service.errors`.  The daemon never hangs a
client: every op gets exactly one reply line.

Two transports speak the identical wire format:

* :class:`SocketTransport` / :class:`DaemonSocketServer` — an ``AF_UNIX``
  stream socket for real deployments.  A transport keeps one connection,
  opened on its first call and reopened after a fault, so a client pays
  for the connect and the server's connection thread once, not per op.
  The server runs an accept thread, one thread per client connection and
  a pump thread that drives the daemon's scheduling ticks; its
  :meth:`~DaemonSocketServer.stop` ends the live connections, so no op is
  served after it returns.
* :class:`FakeTransport` — the deterministic in-process mode the fault
  model is property-tested under: ops and replies make a full
  ``json.dumps``/``loads`` round trip (so anything that would not survive
  the socket does not survive the fake either), connection failures and
  daemon kills are injectable, and each call pumps one daemon tick so
  client retry/poll loops make deterministic progress.

:class:`DaemonClient` is the thin submit/await API on top of either
transport: retryable errors (``RETRY_AFTER`` admission pushback,
``NOT_READY`` polls) and transport ``ConnectionError`` are retried with
exponential backoff + seeded jitter, and a resubmitted request is
idempotent by construction — the daemon keys its journal on
:func:`~repro.service.journal.request_id`, so a retried submit coalesces
onto the original journal entry instead of duplicating work.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Dict, Optional

from ..core.autotune.session import TuningResult
from ..core.autotune.store import canonical_json
from .errors import RequestError, RequestTimeout, error_from_wire
from .journal import request_to_wire, result_from_wire
from .request import TuningRequest

__all__ = [
    "DaemonClient",
    "DaemonSocketServer",
    "FakeTransport",
    "RawJSON",
    "SocketTransport",
    "decode_line",
    "encode_line",
]

#: wire protocol version, stamped into ping replies for handshake checks.
PROTOCOL_VERSION = 1

_MAX_LINE_BYTES = 16 * 1024 * 1024
#: the socket server pump's pause after an idle tick (pacing only).
_IDLE_SLEEP = 0.002


class RawJSON(str):
    """JSON text that :func:`encode_line` writes as is, not as a string.

    For a value encoded once, canonically (``json.dumps(value,
    sort_keys=True)``), and sent many times, as the daemon re-serves a
    journaled result: the line is byte for byte the one ``encode_line``
    writes for the decoded value."""

    __slots__ = ()


def encode_line(payload: Dict[str, object]) -> bytes:
    """One wire line: canonical (sorted-keys) JSON + newline.

    A top-level :class:`RawJSON` value is spliced in verbatim, between the
    same separators ``json.dumps`` puts around an encoded one."""
    if not any(isinstance(value, RawJSON) for value in payload.values()):
        return (canonical_json(payload) + "\n").encode("utf-8")
    fields = ", ".join(
        canonical_json(key)
        + ": "
        + (value if isinstance(value, RawJSON) else canonical_json(value))
        for key, value in sorted(payload.items())
    )
    return ("{" + fields + "}\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, object]:
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(
            f"wire payload is {type(payload).__name__}, expected an object"
        )
    return payload


# -- transports ---------------------------------------------------------- #
class FakeTransport:
    """Deterministic in-process transport over a live ``TuningDaemon``.

    Every call JSON round-trips the op and the reply, so wire-compatibility
    is enforced even without sockets.  Each call runs one daemon tick
    before handling its op, so a client polling ``result`` advances the
    daemon's scheduling deterministically — the property tests drive crash,
    overload and timeout scenarios this way with zero threads.

    Fault injection: :meth:`kill` makes every later call raise
    ``ConnectionError`` (the client sees exactly what a daemon SIGKILL
    looks like from outside); :meth:`fail_next` injects transient
    connection failures for retry-path tests.
    """

    def __init__(self, daemon) -> None:
        self.daemon = daemon
        self.calls = 0
        self._killed = False
        self._fail_next = 0

    def kill(self) -> None:
        """Simulate the daemon process dying under this transport."""
        self._killed = True

    def revive(self, daemon) -> None:
        """Point the transport at a restarted daemon (post-recovery)."""
        self.daemon = daemon
        self._killed = False

    def fail_next(self, count: int = 1) -> None:
        """Make the next ``count`` calls raise ``ConnectionError``."""
        self._fail_next += count

    def call(self, op: Dict[str, object]) -> Dict[str, object]:
        if self._killed:
            raise ConnectionError("tuning daemon is down")
        if self._fail_next > 0:
            self._fail_next -= 1
            raise ConnectionError("injected transport fault")
        self.calls += 1
        wire_op = decode_line(encode_line(op))
        self.daemon.tick()
        reply = self.daemon.handle(wire_op)
        return decode_line(encode_line(reply))


class SocketTransport:
    """Client side of the ``AF_UNIX`` line protocol over one connection.

    The connection is opened on the first call and serves every later one,
    so only the first op pays for the connect and the server's connection
    thread.  Calls take turns under the transport's lock: threads sharing a
    transport wait for each other's round trips, and a thread that must not
    wait builds its own transport.

    Any fault during connect, send or receive (an ``OSError``, a timeout,
    a truncated reply) closes the connection and raises
    ``ConnectionError``; the next call opens a fresh one.  Closing is also
    what keeps a late reply to a timed-out op from being read as the answer
    to the next op.  An undecodable reply line closes the connection too,
    then raises ``ValueError``.  The transport never retries:
    :class:`DaemonClient` owns the retry policy, and every op is safe to
    retry (``submit`` is idempotent by rid, the rest are reads or an
    idempotent ``drain``).
    """

    def __init__(self, path: str, *, timeout: float = 30.0) -> None:
        self.path = path
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def call(self, op: Dict[str, object]) -> Dict[str, object]:
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    self._sock.settimeout(self.timeout)
                    self._sock.connect(self.path)
                self._sock.sendall(encode_line(op))
                line = _read_line(self._sock)
            except OSError as exc:  # timeouts and ConnectionError included
                self._close_locked()
                raise ConnectionError(
                    f"tuning daemon at {self.path!r} unreachable: {exc}"
                ) from exc
            try:
                return decode_line(line)
            except ValueError:
                self._close_locked()
                raise

    def close(self) -> None:
        """Close the connection (idempotent); a later call reconnects."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        """(lock held) Drop the connection, if one is open."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()


def _read_line(sock: socket.socket) -> bytes:
    """Read one newline-terminated wire line; raise ``ConnectionError``
    for every truncated shape (no data, mid-line close, oversized line) so
    the client retry loop treats them all as transient transport faults —
    a half-delivered reply must never surface as a JSON decode error."""
    chunks = []
    total = 0
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            if chunks:
                raise ConnectionError(
                    f"connection closed mid-line after {total} bytes "
                    "(reply truncated)"
                )
            raise ConnectionError("connection closed before a reply line arrived")
        chunks.append(chunk)
        total += len(chunk)
        if chunk.endswith(b"\n"):
            break
        if total > _MAX_LINE_BYTES:
            raise ConnectionError("wire line exceeds the size limit")
    return b"".join(chunks)


class DaemonSocketServer:
    """Serve a ``TuningDaemon`` on an ``AF_UNIX`` socket.

    Three kinds of threads: one accept loop, one thread per client
    connection, living as long as the connection (read op lines, write
    reply lines — the daemon's ``handle`` is thread-safe), and one pump
    thread running ``daemon.tick()`` so tuning progresses while clients
    poll.  Between busy ticks the pump waits in ``daemon.wait()``, which
    holds no lock (a pool backend wakes at its workers' next message), and
    a tick never blocks, so a wire op waits for at most one tick.  A
    healthy connection is never closed while the server runs: no idle
    timeout, no cap on ops per connection.  All threads are daemonic; the
    pump's sleep after an idle tick is pacing, not a timing source.

    :meth:`stop` ends every live connection and joins every thread, so
    once it returns no op is served and no op is still being handled.
    """

    def __init__(
        self,
        daemon,
        path: str,
        *,
        max_line_bytes: int = _MAX_LINE_BYTES,
    ) -> None:
        self.daemon = daemon
        self.path = path
        #: per-connection buffer cap: a client that streams bytes without
        #: ever sending a newline is answered BAD_REQUEST and disconnected
        #: instead of growing the buffer unboundedly.
        self.max_line_bytes = int(max_line_bytes)
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads = []
        #: live client connections -> the thread serving each.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        #: the exception that ended the pump thread; the server stops with it.
        self.fault: Optional[Exception] = None

    def start(self) -> "DaemonSocketServer":
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.path)
        except OSError:
            listener.close()
            raise
        listener.listen(16)
        listener.settimeout(0.1)
        self._listener = listener
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        pump = threading.Thread(target=self._pump_loop, daemon=True)
        self._threads = [accept, pump]
        accept.start()
        pump.start()
        return self

    def stop(self) -> None:
        """Stop serving (idempotent): no connection is accepted, and no op
        is handled, once this returns.

        The accept thread is joined before the live connections are shut
        down, so every connection it accepted is among them.  Shutting a
        connection down returns its thread from a blocked ``recv`` or
        ``sendall``; an op already inside ``daemon.handle`` finishes, and
        its reply is dropped with the connection.
        """
        self._stop.set()
        if self._threads:
            self._threads[0].join()  # the accept thread
        with self._lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client hung up first
            serving = list(self._connections.values())
        for thread in self._threads + serving:
            thread.join()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- threads --------------------------------------------------------- #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._lock:
                self._connections[conn] = thread
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One client's read-dispatch-reply loop.

        Robust against misbehaving clients by construction: a mid-line
        disconnect just drops the partial buffer with the connection, an
        op line over ``max_line_bytes`` gets a BAD_REQUEST reply and a
        disconnect, and an undecodable line gets a BAD_REQUEST reply with
        the connection kept — none of these can take the thread down, so
        the accept loop keeps serving every other connection.  The
        connection leaves the registry before it is closed, so :meth:`stop`
        never shuts down a closed socket's recycled descriptor.
        """
        buffer = b""
        try:
            while not self._stop.is_set():
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk
                if len(buffer) > self.max_line_bytes and b"\n" not in buffer:
                    reply = {
                        "ok": False,
                        "error": {
                            "code": "BAD_REQUEST",
                            "message": (
                                f"wire line exceeds {self.max_line_bytes} "
                                "bytes; disconnecting"
                            ),
                        },
                    }
                    try:
                        conn.sendall(encode_line(reply))
                    except OSError:
                        pass
                    return
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    try:
                        op = decode_line(line + b"\n")
                    except ValueError as exc:
                        reply = {
                            "ok": False,
                            "error": {
                                "code": "BAD_REQUEST",
                                "message": f"undecodable wire line: {exc}",
                            },
                        }
                    else:
                        reply = self.daemon.handle(op)
                    try:
                        conn.sendall(encode_line(reply))
                    except OSError:
                        return
        finally:
            with self._lock:
                del self._connections[conn]
            conn.close()

    def _pump_loop(self) -> None:
        try:
            while not self._stop.is_set():
                if self.daemon.tick():
                    self.daemon.wait()
                else:
                    time.sleep(_IDLE_SLEEP)
        except Exception as exc:
            # A round raised (a failed journal write): stop serving work
            # that no pump would finish.
            self.fault = exc
            self._stop.set()
            raise


# -- client -------------------------------------------------------------- #
class DaemonClient:
    """Submit/await API over a transport, with idempotent retries.

    Backoff is exponential with multiplicative jitter from an explicitly
    seeded ``random.Random`` (deterministic under test, decorrelated in a
    fleet); a server-supplied ``retry_after`` hint floors the delay.
    ``sleep`` is injectable — tests pass ``FakeClock.advance`` so backoff
    *advances* simulated time (refilling the daemon's token bucket) instead
    of stalling the suite.

    Submits are safe to retry blindly: the daemon journals requests under
    their deadline-free idempotency key, so a retried submit — after a
    connection fault, an overload rejection, or even a daemon restart —
    coalesces onto the original journal entry and never duplicates a
    measurement.
    """

    def __init__(
        self,
        transport,
        *,
        max_attempts: int = 8,
        poll_attempts: int = 100_000,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int = 0,
        sleep=None,
    ) -> None:
        if max_attempts < 1 or poll_attempts < 1:
            raise ValueError("max_attempts and poll_attempts must be >= 1")
        self.transport = transport
        self.max_attempts = max_attempts
        self.poll_attempts = poll_attempts
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._rng = random.Random(jitter_seed)
        # time.sleep is pacing between retries, never a measurement.
        self._sleep = time.sleep if sleep is None else sleep
        #: retries performed (transport faults + retryable rejections).
        self.retries = 0

    # -- plumbing -------------------------------------------------------- #
    def _backoff_delay(self, attempt: int, hint: Optional[float]) -> float:
        base = min(self.backoff_cap, self.backoff * (2.0**attempt))
        delay = base * (0.5 + self._rng.random())  # jitter in [0.5x, 1.5x)
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    def _call(
        self, op: Dict[str, object], *, attempts: Optional[int] = None
    ) -> Dict[str, object]:
        """One op with retries; returns the ok-reply or raises typed."""
        limit = self.max_attempts if attempts is None else attempts
        attempt = 0
        while True:
            try:
                reply = self.transport.call(op)
            except ConnectionError:
                if attempt + 1 >= limit:
                    raise
                self.retries += 1
                self._sleep(self._backoff_delay(attempt, None))
                attempt += 1
                continue
            if reply.get("ok"):
                return reply
            error = error_from_wire(reply.get("error", {}))
            if error.retryable and attempt + 1 < limit:
                self.retries += 1
                self._sleep(self._backoff_delay(attempt, error.retry_after))
                attempt += 1
                continue
            raise error

    # -- ops ------------------------------------------------------------- #
    def ping(self) -> bool:
        reply = self._call({"op": "ping"})
        return bool(reply.get("pong"))

    def describe(self) -> Dict[str, object]:
        return dict(self._call({"op": "describe"})["daemon"])

    def submit(
        self, request: TuningRequest, *, timeout: Optional[float] = None
    ) -> str:
        """Submit (retrying through overload pushback); returns the rid."""
        op: Dict[str, object] = {"op": "submit", "request": request_to_wire(request)}
        if timeout is not None:
            op["timeout"] = float(timeout)
        return str(self._call(op)["rid"])

    def status(self, rid: str) -> Dict[str, object]:
        return self._call({"op": "status", "rid": rid})

    def result(self, rid: str) -> TuningResult:
        """Poll until the journaled result is available, then decode it.

        ``NOT_READY`` replies are the poll loop (bounded by
        ``poll_attempts``); terminal failures raise their typed error."""
        try:
            reply = self._call({"op": "result", "rid": rid}, attempts=self.poll_attempts)
        except RequestError as error:
            if error.retryable:
                raise RequestTimeout(
                    f"request {rid} not ready after {self.poll_attempts} polls"
                ) from error
            raise
        return result_from_wire(reply["result"])

    def submit_and_wait(
        self, request: TuningRequest, *, timeout: Optional[float] = None
    ) -> TuningResult:
        return self.result(self.submit(request, timeout=timeout))

    def drain(self) -> Dict[str, object]:
        return self._call({"op": "drain"})
