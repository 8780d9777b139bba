"""Typed request-lifecycle errors shared by the scheduler, daemon and client.

The always-on daemon's robustness contract is that a submit can never hang
or fail anonymously: every outcome is either a result or one of these typed
errors, each carrying a stable wire ``code`` so the error survives a JSON
round trip (:meth:`RequestError.to_wire` / :func:`error_from_wire`) and the
client can branch on class, not on message text.

``retryable`` encodes the retry policy the daemon promises:

* :class:`Overloaded` (code ``RETRY_AFTER``) — admission control pushed
  back; retrying after ``retry_after`` seconds (with backoff + jitter) is
  expected to succeed.  Idempotent resubmits coalesce on the request id, so
  retrying is always safe.
* :class:`NotReady` — the request is journaled and in flight; polling again
  is the protocol, not an error condition.
* Everything else is terminal for the attempt: a malformed request, an
  already-passed deadline, a draining daemon, a per-request timeout, or the
  run itself failing.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "BadRequest",
    "DaemonDraining",
    "DeadlineExpired",
    "NotReady",
    "Overloaded",
    "RequestCancelled",
    "RequestError",
    "RequestFailed",
    "RequestTimeout",
    "UnknownRequest",
    "as_request_error",
    "error_from_wire",
]


class RequestError(Exception):
    """Base of every typed request-lifecycle error.

    ``code`` is the stable wire discriminator; ``retry_after`` (seconds,
    optional) is the server's hint for when a retry could succeed — only
    meaningful on retryable errors.
    """

    code = "ERROR"
    retryable = False

    def __init__(self, message: str = "", *, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after

    @property
    def message(self) -> str:
        return str(self)

    def to_wire(self) -> Dict[str, object]:
        """JSON-native form: ``{"code", "message"[, "retry_after"]}``."""
        wire: Dict[str, object] = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            wire["retry_after"] = float(self.retry_after)
        return wire


class BadRequest(RequestError):
    """The payload is not a decodable/valid tuning request or wire op."""

    code = "BAD_REQUEST"


class DeadlineExpired(RequestError):
    """The request's deadline had already passed at submit time.

    Rejected up front — never admitted, journaled, or timed out later."""

    code = "DEADLINE_EXPIRED"


class Overloaded(RequestError):
    """Admission control rejected the submit (queue depth or rate limit).

    The typed ``RETRY_AFTER`` rejection: the daemon answers immediately
    instead of queueing unboundedly, and the client backs off and retries."""

    code = "RETRY_AFTER"
    retryable = True


class DaemonDraining(RequestError):
    """The daemon is draining: in-flight work finishes, admissions stop."""

    code = "DRAINING"


class RequestTimeout(RequestError):
    """The per-request timeout elapsed; the run was cancelled cleanly."""

    code = "TIMEOUT"


class RequestCancelled(RequestError):
    """The run was cancelled before finishing (no more specific cause)."""

    code = "CANCELLED"


class NotReady(RequestError):
    """The request is journaled and in flight; poll again for the result."""

    code = "NOT_READY"
    retryable = True


class UnknownRequest(RequestError):
    """No journal entry for this request id (never accepted here)."""

    code = "UNKNOWN_REQUEST"


class RequestFailed(RequestError):
    """The tuning run itself raised; the message carries the cause."""

    code = "FAILED"


def as_request_error(exc: BaseException, prefix: str = "") -> RequestError:
    """The typed error a failed request reports: ``exc`` itself when it is
    already a :class:`RequestError`, else a :class:`RequestFailed` whose
    message is ``prefix`` followed by ``exc``'s."""
    if isinstance(exc, RequestError):
        return exc
    return RequestFailed(f"{prefix}{exc}")


_BY_CODE: Dict[str, Type[RequestError]] = {
    cls.code: cls
    for cls in (
        BadRequest,
        DeadlineExpired,
        Overloaded,
        DaemonDraining,
        RequestTimeout,
        RequestCancelled,
        NotReady,
        UnknownRequest,
        RequestFailed,
    )
}


def error_from_wire(wire: Dict[str, object]) -> RequestError:
    """Reconstruct the typed error a reply's ``error`` dict encodes.

    Unknown codes decode to the :class:`RequestError` base (with the code
    preserved in the message) rather than raising — a newer daemon must be
    able to reject an older client intelligibly.
    """
    code = str(wire.get("code", "ERROR"))
    message = str(wire.get("message", ""))
    retry_after = wire.get("retry_after")
    cls = _BY_CODE.get(code)
    if cls is None:
        return RequestError(
            f"[{code}] {message}",
            retry_after=None if retry_after is None else float(retry_after),
        )
    return cls(
        message, retry_after=None if retry_after is None else float(retry_after)
    )
