"""Vectorised explorer — wall-clock speedup of the search-side hot path.

PRs 1–3 vectorised the measurement side; after them the tuner's wall-clock is
dominated by ``ParallelRandomWalkExplorer.propose`` (Section 6.2's searching
process).  This benchmark drives both explorer implementations through one
realistic 256-walker proposal against a trained cost model:

* ``scalar`` — the reference path: one ``Configuration`` at a time through
  ``space.neighbor`` / per-row features / a scalar Metropolis loop;
* ``vectorized`` — the lock-step SoA path: batched ``neighbor_batch`` draws,
  column-wise ``feature_matrix`` scoring and vectorised Metropolis accepts.

Two correctness properties always gate (regardless of wall clock): the
column-wise feature matrix must be bit-identical to the per-row path, and the
vectorised explorer's best-found runtime at equal measurement budget must be
no worse than the scalar explorer's (≤5% in the mean) across a seed grid.

Timing alternates the two explorers over ``PAIRS`` pairs
(``interleaved_pairs`` in ``conftest.py``, which side runs first
alternating too); ``speedup`` is the median per-pair scalar / vectorised
ratio, reported with its quartiles.  The ≥5x floor on it is soft under
``BENCH_SPEEDUP_SOFT=1``.  Three call counts, taken under
``sys.setprofile``, do not move with the host: one scalar and one
vectorised 256-walker propose (``propose_call_ratio`` is their ratio), and
the default 16-walker x 24-step propose that every fresh ATE request runs
(``default_propose_calls``).

A second benchmark times ``SearchSpace.size()``, which every fresh tuning
session calls to fill ``TuningResult.space_size``, against the enumerating
loop it replaced (``tests/space_oracle.py``) over the 348 zoo spaces.  Equal
counts always gate; the ``count_speedup`` floor is in ``bench_baseline.json``.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import warnings

import numpy as np
import pytest

from conftest import PAIRS, count_calls, emit, interleaved_pairs, write_bench_json
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.obs import MonotonicClock
from repro.core.autotune import (
    AutoTuningEngine,
    ConfigArray,
    CostModel,
    ExplorerConfig,
    Measurer,
    ParallelRandomWalkExplorer,
    ScalarRandomWalkExplorer,
    SearchSpace,
    feature_matrix,
    feature_vector,
)

# The enumerating count lives with the tests, not in src/.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)
from tests.space_oracle import oracle_size, zoo_spaces  # noqa: E402

PARAMS = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
NUM_WALKERS = 256
WALK_LENGTH = 24
BATCH_SIZE = 64
TRAIN_SAMPLES = 128
ROUNDS = 3
#: a fresh ATE request's one propose: the default explorer, its batch and
#: the initial random sample its cost model trains on.
DEFAULT_BATCH = 16
DEFAULT_TRAIN = 16

QUALITY_BUDGET = 96
QUALITY_SEEDS = range(5)
QUALITY_TOLERANCE = 1.05


def _trained_model(spec, samples=TRAIN_SAMPLES):
    space = SearchSpace(PARAMS, spec, "direct", pruned=True)
    measurer = Measurer(PARAMS, spec)
    train = space.sample(random.Random(7), samples)
    times = [
        measurer.time_seconds(c) if measurer.is_feasible(c) else float("inf")
        for c in train
    ]
    model = CostModel(min_samples=8, seed=0)
    model.fit(feature_matrix(train, PARAMS, spec), times)
    return space, model, train


#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def run_explorer_benchmark(spec):
    space, model, train = _trained_model(spec)
    cfg = ExplorerConfig(num_walkers=NUM_WALKERS, walk_length=WALK_LENGTH)

    # Hard gate: the column-wise features are bit-identical to per-row ones.
    fast = feature_matrix(ConfigArray.from_configs(train), PARAMS, spec)
    reference = np.stack([feature_vector(c, PARAMS, spec) for c in train])
    assert (fast == reference).all(), "feature_matrix diverges from feature_vector"

    def scalar():
        ScalarRandomWalkExplorer(space, PARAMS, spec, config=cfg, seed=5).propose(
            model, BATCH_SIZE
        )

    def vectorized():
        ParallelRandomWalkExplorer(space, PARAMS, spec, config=cfg, seed=5).propose(
            model, BATCH_SIZE
        )

    timing = interleaved_pairs(scalar, vectorized)
    t_scalar = statistics.median(timing.reference_seconds)
    t_vector = statistics.median(timing.candidate_seconds)
    default_space, default_model, _ = _trained_model(spec, DEFAULT_TRAIN)
    calls = {
        "scalar": count_calls(scalar),
        "vectorized": count_calls(vectorized),
        "default": count_calls(
            lambda: ParallelRandomWalkExplorer(
                default_space, PARAMS, spec, seed=5
            ).propose(default_model, DEFAULT_BATCH)
        ),
    }

    # Hard gate: search quality at equal measurement budget, seed grid.
    quality = {}
    for name, cls in (
        ("scalar", ScalarRandomWalkExplorer),
        ("vectorized", ParallelRandomWalkExplorer),
    ):
        quality[name] = [
            AutoTuningEngine(
                PARAMS,
                spec,
                "direct",
                max_measurements=QUALITY_BUDGET,
                seed=seed,
                measurer=Measurer(PARAMS, spec),
                explorer_cls=cls,
            )
            .tune()
            .best_time
            for seed in QUALITY_SEEDS
        ]
    scalar_mean = statistics.mean(quality["scalar"])
    vector_mean = statistics.mean(quality["vectorized"])
    assert vector_mean <= scalar_mean * QUALITY_TOLERANCE, (
        f"vectorised explorer quality regressed: mean best {vector_mean:.3e}s vs "
        f"scalar {scalar_mean:.3e}s over seeds {list(QUALITY_SEEDS)}"
    )

    table = ResultTable(
        f"Explorer propose() ({spec.name}, {NUM_WALKERS} walkers x "
        f"{WALK_LENGTH} steps, trained model, median of {PAIRS} interleaved pairs)",
        columns=["explorer", "ms", "us_per_walker_step", "calls", "speedup"],
    )
    for name, t in (("scalar", t_scalar), ("vectorized", t_vector)):
        table.add_row(
            explorer=name,
            ms=t * 1e3,
            us_per_walker_step=t * 1e6 / (NUM_WALKERS * WALK_LENGTH),
            calls=calls[name],
            speedup=t_scalar / t,
        )
    return table, timing, calls, scalar_mean, vector_mean


@pytest.mark.benchmark(group="explorer")
def test_explorer_speedup(benchmark, gpu_v100):
    table, timing, calls, q_scalar, q_vector = benchmark.pedantic(
        run_explorer_benchmark, args=(gpu_v100,), rounds=1, iterations=1
    )
    speedup = timing.median
    call_ratio = calls["scalar"] / calls["vectorized"]
    emit(render_table(table, precision=2))
    emit(
        f"vectorized propose() speedup: {speedup:.2f}x "
        f"(IQR {timing.q1:.2f}-{timing.q3:.2f} over {PAIRS} pairs; "
        f"{call_ratio:.1f}x fewer calls; quality: {q_vector / q_scalar:.3f}x "
        f"scalar mean best time at {QUALITY_BUDGET}-measurement budget); "
        f"default {ExplorerConfig().num_walkers}-walker propose: "
        f"{calls['default']} calls"
    )
    write_bench_json(
        "explorer",
        gpu=gpu_v100.name,
        num_walkers=NUM_WALKERS,
        walk_length=WALK_LENGTH,
        batch_size=BATCH_SIZE,
        pairs=PAIRS,
        scalar_seconds=statistics.median(timing.reference_seconds),
        vectorized_seconds=statistics.median(timing.candidate_seconds),
        speedup=speedup,
        speedup_q1=timing.q1,
        speedup_q3=timing.q3,
        speedup_iqr=timing.iqr,
        scalar_propose_calls=calls["scalar"],
        vectorized_propose_calls=calls["vectorized"],
        default_propose_calls=calls["default"],
        propose_call_ratio=call_ratio,
        quality_budget=QUALITY_BUDGET,
        quality_scalar_mean_best=q_scalar,
        quality_vectorized_mean_best=q_vector,
        quality_ratio=q_vector / q_scalar,
    )
    # Wall-clock floor gates by default; BENCH_SPEEDUP_SOFT=1 downgrades a
    # shortfall to a warning on noisy shared runners (the bit-identity and
    # search-quality asserts above always gate).
    floor = 5.0
    if speedup < floor:
        message = f"explorer speedup is {speedup:.1f}x, below the {floor}x floor"
        if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
            warnings.warn(message, stacklevel=2)
        else:
            pytest.fail(message)


def run_count_benchmark():
    """Best-of-``ROUNDS`` seconds for ``size()`` and for the oracle loop over
    every zoo space; every round checks that the counts are equal."""
    best = {"count": float("inf"), "oracle": float("inf")}
    for _ in range(ROUNDS):
        counts = {}
        for name, fn in (("count", SearchSpace.size), ("oracle", oracle_size)):
            # Fresh spaces every round: size() memoises per instance.
            spaces = zoo_spaces()
            start = _CLOCK.now()
            counts[name] = [fn(space) for space in spaces]
            best[name] = min(best[name], _CLOCK.now() - start)
        # Hard gate: the closed-form count equals the enumeration everywhere.
        assert counts["count"] == counts["oracle"], (
            "SearchSpace.size() diverges from the enumerating oracle"
        )
    return len(spaces), best["count"], best["oracle"]


@pytest.mark.benchmark(group="explorer")
def test_space_count_speedup(benchmark):
    num_spaces, t_count, t_oracle = benchmark.pedantic(
        run_count_benchmark, rounds=1, iterations=1
    )
    count_speedup = t_oracle / t_count
    emit(
        f"SearchSpace.size() over {num_spaces} zoo spaces: {t_count * 1e3:.1f} ms "
        f"vs {t_oracle * 1e3:.0f} ms for the enumerating loop "
        f"({count_speedup:.0f}x, best of {ROUNDS})"
    )
    write_bench_json(
        "search_space",
        num_spaces=num_spaces,
        rounds=ROUNDS,
        count_seconds=t_count,
        oracle_seconds=t_oracle,
        count_speedup=count_speedup,
    )
