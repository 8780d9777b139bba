"""Injected clocks: the only module in the repository that reads ``time.*``.

Everything the observability layer timestamps — span durations, request
latencies, exporter event times — flows through a :class:`Clock` instance
that the *caller* injects, never through a direct ``time.monotonic()`` call
at the point of measurement.  That indirection is what lets instrumented
code obey the repository's determinism contracts:

* **core stays deterministic** — instrumented code in ``src/repro/core/`` and
  ``src/repro/gpusim/`` runs with :data:`NULL_CLOCK` (reads return ``0.0``,
  durations collapse to zero), so REPRO601 keeps holding: no wall-clock value
  can influence a trajectory, because no wall-clock value exists there;
* **tests are reproducible** — :class:`FakeClock` advances only when a test
  says so, making span durations and rate computations exact assertions
  instead of sleeps and tolerances;
* **the edges read real time** — drivers, benchmarks and exporters construct
  a :class:`MonotonicClock` exactly once, at the boundary of the system.

The generalised repo-wide rule is reprolint **REPRO701**: a direct
``time.time``/``time.monotonic``/``time.perf_counter``/``datetime.now`` read
anywhere outside *this file* is a lint failure — if code needs a clock, it
must accept one.
"""

from __future__ import annotations

import time

__all__ = [
    "Clock",
    "FakeClock",
    "MonotonicClock",
    "NullClock",
    "NULL_CLOCK",
]


class Clock:
    """Minimal clock interface: :meth:`now` returns seconds as a float.

    What the value means (monotonic offset, epoch time, fake ticks) is the
    implementation's business; consumers only ever subtract two reads from
    the *same* clock or attach a read as an opaque timestamp.
    """

    def now(self) -> float:
        raise NotImplementedError


class MonotonicClock(Clock):
    """High-resolution monotonic clock for measuring durations.

    Backed by ``time.perf_counter`` — the same source every benchmark in
    ``benchmarks/`` uses, so service span durations and benchmark wall-clock
    numbers are directly comparable.
    """

    def now(self) -> float:
        return time.perf_counter()


class NullClock(Clock):
    """The no-op clock: every read returns ``0.0``.

    The disabled-observability path and all core-resident instrumentation
    run on this clock — durations become exactly ``0.0``, nothing allocates,
    and no timing value can leak into deterministic code.
    """

    def now(self) -> float:
        return 0.0


class FakeClock(Clock):
    """Manually advanced clock for deterministic tests.

    ``FakeClock(start)`` reads ``start`` until :meth:`advance` moves it; test
    code controls exactly how much "time" every measured region took.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("FakeClock only moves forward (monotonic contract)")
        self._now += float(seconds)


#: shared no-op clock instance (clocks are stateless except FakeClock).
NULL_CLOCK = NullClock()
