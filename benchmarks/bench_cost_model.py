"""Cost-model retraining — wall-clock speedup of the all-features split search.

The ATE retrains its cost model between measurement rounds, and in the
tuning daemon that retrain is most of a fresh request's time.  This
benchmark times ``CostModel.fit`` on fixed seeded ``feature_matrix`` inputs
of the sizes a budget-32 and a budget-64+ run retrain on (16 x 21 and
64 x 21), once as shipped and once with the per-feature reference split
search (``tests/cost_model_oracle.py``) monkeypatched in.

Tree identity always gates: every node of every boosted tree, and the
predicted scores, must be bit-identical between the two.  The >=3x
``fit_speedup`` floor (the smaller of the two sizes' speedups) is soft under
``BENCH_SPEEDUP_SOFT=1``.
"""

from __future__ import annotations

import os
import random
import sys
import warnings

import pytest

from conftest import emit, write_bench_json
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.core.autotune import CostModel, Measurer, RegressionTree, SearchSpace, feature_matrix
from repro.obs import MonotonicClock

# The reference split search lives with the tests, not in src/.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)
from tests.cost_model_oracle import oracle_best_split, tree_state  # noqa: E402

PARAMS = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
SIZES = (16, 64)
ROUNDS = 5
FLOOR = 3.0

#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def _inputs(spec, n):
    space = SearchSpace(PARAMS, spec, "direct", pruned=True)
    measurer = Measurer(PARAMS, spec)
    configs = space.sample(random.Random(n), n)
    times = [
        measurer.time_seconds(c) if measurer.is_feasible(c) else float("inf")
        for c in configs
    ]
    return feature_matrix(configs, PARAMS, spec), times


def run_cost_model_benchmark(spec):
    shipped_split = RegressionTree._best_split
    rows = {}
    for n in SIZES:
        x, times = _inputs(spec, n)
        best = {"shipped": float("inf"), "oracle": float("inf")}
        state = {}
        # Alternate the two sides so host-speed drift hits both alike.
        for _ in range(ROUNDS):
            for name, split in (("shipped", shipped_split), ("oracle", oracle_best_split)):
                RegressionTree._best_split = split
                try:
                    model = CostModel(min_samples=8, seed=0)
                    start = _CLOCK.now()
                    model.fit(x, times)
                    best[name] = min(best[name], _CLOCK.now() - start)
                finally:
                    RegressionTree._best_split = shipped_split
                state[name] = (
                    [tree_state(t) for t in model._model._trees],
                    model.predict_score(x).tobytes(),
                )
        # Hard gate: the same trees and scores as the reference loop.
        assert state["shipped"] == state["oracle"], (
            f"split search diverges from the per-feature oracle on {n} x {x.shape[1]}"
        )
        rows[n] = (x.shape[1], best["oracle"], best["shipped"])

    table = ResultTable(
        f"CostModel.fit ({spec.name}, feature_matrix rows, best of {ROUNDS})",
        columns=["rows", "features", "oracle_ms", "shipped_ms", "speedup"],
    )
    for n, (d, t_oracle, t_shipped) in rows.items():
        table.add_row(
            rows=n,
            features=d,
            oracle_ms=t_oracle * 1e3,
            shipped_ms=t_shipped * 1e3,
            speedup=t_oracle / t_shipped,
        )
    return table, rows


@pytest.mark.benchmark(group="cost_model")
def test_cost_model_fit_speedup(benchmark, gpu_v100):
    table, rows = benchmark.pedantic(
        run_cost_model_benchmark, args=(gpu_v100,), rounds=1, iterations=1
    )
    speedups = {n: t_oracle / t_shipped for n, (_, t_oracle, t_shipped) in rows.items()}
    fit_speedup = min(speedups.values())
    emit(render_table(table, precision=2))
    emit(f"CostModel.fit speedup over the per-feature oracle: {fit_speedup:.2f}x (worst size)")
    payload = {"gpu": gpu_v100.name, "rounds": ROUNDS, "fit_speedup": fit_speedup}
    for n, (_, t_oracle, t_shipped) in rows.items():
        payload[f"oracle_seconds_{n}"] = t_oracle
        payload[f"shipped_seconds_{n}"] = t_shipped
        payload[f"fit_speedup_{n}"] = speedups[n]
    write_bench_json("cost_model", **payload)
    # Wall-clock floor gates by default; BENCH_SPEEDUP_SOFT=1 downgrades a
    # shortfall to a warning on noisy shared runners (the tree-identity
    # assert above always gates).
    if fit_speedup < FLOOR:
        message = f"CostModel.fit speedup is {fit_speedup:.2f}x, below the {FLOOR}x floor"
        if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
            warnings.warn(message, stacklevel=2)
        else:
            pytest.fail(message)
