"""A time limit for checks whose regression is a hang, not a wrong answer.

The daemon and pool tests run such checks through :func:`within`, so a
regression fails the test in seconds instead of stalling the suite.
"""

from __future__ import annotations

import threading


def within(seconds, check):
    """Run ``check`` in a daemon thread and fail unless it returns within
    ``seconds``; what it raises is re-raised here.  For checks whose
    regression is a hang rather than a wrong answer."""
    raised = []

    def run():
        try:
            check()
        except BaseException as exc:  # re-raised in the test's thread
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{check.__name__} still running after {seconds}s"
    if raised:
        raise raised[0]
