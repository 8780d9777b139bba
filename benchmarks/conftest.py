"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md
§4) and prints its rows with the analysis helpers so that
``pytest benchmarks/ --benchmark-only -s`` (or the captured ``bench_output.txt``)
contains the reproduced numbers alongside pytest-benchmark's timing table.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Callable, List

import pytest

from repro.gpusim import GTX_1080TI, V100
from repro.obs import MonotonicClock

#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here and in the benches that time by hand.
_CLOCK = MonotonicClock()
#: the pairs :func:`interleaved_pairs` runs.
PAIRS = 10


def emit(text: str) -> None:
    """Print a report block, padded so it stays readable inside pytest output."""
    print("\n" + text + "\n")


def write_bench_json(name: str, **payload) -> str:
    """Persist a benchmark's machine-readable telemetry.

    Writes ``BENCH_<name>.json`` into ``$BENCH_DIR`` (default: the current
    working directory); CI uploads every ``BENCH_*.json`` as a build artifact
    so the repo accumulates a perf trajectory instead of throwing the numbers
    away with the job log.  Keep payloads flat and JSON-native (speedups,
    wall-clock seconds, measurement counts).  Returns the path written.
    """
    path = os.path.join(os.environ.get("BENCH_DIR", "."), f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    emit(f"bench telemetry written to {path}")
    return path


def write_obs_json(name: str, snapshot, **extra) -> str:
    """Persist an observability snapshot next to the bench telemetry.

    Writes ``OBS_<name>.json`` into ``$BENCH_DIR`` with the snapshot's wire
    form under ``"metrics"`` plus any flat extras (overhead ratios, run
    parameters).  CI uploads ``OBS_*.json`` alongside ``BENCH_*.json``, so
    the perf trajectory carries the metric values that explain the timings
    (fill ratios, coalesce hits, db short-circuits), not just the timings.
    """
    path = os.path.join(os.environ.get("BENCH_DIR", "."), f"OBS_{name}.json")
    payload = dict(extra)
    payload["metrics"] = snapshot.to_wire()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    emit(f"observability telemetry written to {path}")
    return path


@dataclass(frozen=True)
class PairedRatio:
    """Per-pair ``reference / candidate`` time ratios of interleaved runs."""

    median: float
    q1: float
    q3: float
    reference_seconds: List[float]
    candidate_seconds: List[float]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def interleaved_pairs(
    reference: Callable[[], object], candidate: Callable[[], object]
) -> PairedRatio:
    """Time ``reference`` against ``candidate`` over :data:`PAIRS`
    alternating pairs.

    Each pair runs both callables once, and which one runs first alternates
    from pair to pair, so a host that changes speed slows both sides of a
    pair alike.  Each pair gives one ``reference / candidate`` ratio; the
    result is their median and quartiles (the quartiles ``run.py compare``
    uses), with each side's seconds in run order.
    """
    sides = (reference, candidate)
    seconds: List[List[float]] = [[], []]
    for pair in range(PAIRS):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            start = _CLOCK.now()
            sides[side]()
            seconds[side].append(_CLOCK.now() - start)
    ratios = [r / c for r, c in zip(*seconds)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return PairedRatio(median, q1, q3, *seconds)


def count_calls(fn: Callable[[], object]) -> int:
    """Python and C calls made by ``fn()``, counted under ``sys.setprofile``:
    a count that, unlike a time, does not move with the host."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="session")
def gpu_1080ti():
    return GTX_1080TI


@pytest.fixture(scope="session")
def gpu_v100():
    return V100


@pytest.fixture(scope="session")
def per_block_elements(gpu_1080ti):
    """Fast-memory budget per thread block (two resident blocks per SM)."""
    return gpu_1080ti.shared_mem_per_sm // gpu_1080ti.dtype_size // 2
