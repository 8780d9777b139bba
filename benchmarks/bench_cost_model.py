"""Cost-model retraining — speedup of the shipped fit over the reference fit.

The ATE retrains its cost model before every search batch, and in the
tuning daemon that retrain is the largest layer of a fresh request.  This
benchmark fits ``CostModel`` on fixed seeded ``feature_matrix`` inputs of
the sizes a ``cold`` request and a budget-64 run retrain on (16, 32, 48 and
64 rows x 21 features), once as shipped and once with the reference fit
(``tests/cost_model_oracle.py``: the recursive build with ``np.mean``, the
per-feature split loop with ``np.var`` and a per-tree predict) in place of
``GradientBoostedTrees``.

Tree identity always gates: every node of every boosted tree, each tree's
depth, and the predicted scores must be bit-identical between the two.

Timing alternates the two sides over ``PAIRS`` pairs per size
(``interleaved_pairs`` in ``conftest.py``; which side runs first alternates
too), so host-speed drift hits both alike; each pair gives one oracle /
shipped ratio, and the report is the median ratio and its interquartile
range.  ``fit_speedup`` is the smallest size's median; the
``FLOOR`` on it is soft under ``BENCH_SPEEDUP_SOFT=1``.  ``fit_calls`` counts
the Python and C calls of one fit under ``sys.setprofile``, a number that
does not move with the host.
"""

from __future__ import annotations

import functools
import os
import random
import statistics
import sys
import warnings

import pytest

from conftest import PAIRS, count_calls, emit, interleaved_pairs, write_bench_json
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.core.autotune import CostModel, Measurer, SearchSpace, cost_model, feature_matrix

# The reference fit lives with the tests, not in src/.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)
from tests.cost_model_oracle import OracleBoosting, tree_state  # noqa: E402

PARAMS = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
SIZES = (16, 32, 48, 64)
FLOOR = 5.0


def _inputs(spec, n):
    space = SearchSpace(PARAMS, spec, "direct", pruned=True)
    measurer = Measurer(PARAMS, spec)
    configs = space.sample(random.Random(n), n)
    times = [
        measurer.time_seconds(c) if measurer.is_feasible(c) else float("inf")
        for c in configs
    ]
    return feature_matrix(configs, PARAMS, spec), times


def _fit(side, x, times):
    """One ``CostModel.fit`` on ``side`` (``"shipped"`` or ``"oracle"``)."""
    shipped = cost_model.GradientBoostedTrees
    if side == "oracle":
        cost_model.GradientBoostedTrees = OracleBoosting
    try:
        model = CostModel(min_samples=8, seed=0)
        model.fit(x, times)
    finally:
        cost_model.GradientBoostedTrees = shipped
    return model


def run_cost_model_benchmark(spec):
    rows = {}
    for n in SIZES:
        x, times = _inputs(spec, n)
        state = {}
        for side in ("shipped", "oracle"):
            # Warm: the first fit fills the candidate-position cache.
            model = _fit(side, x, times)
            state[side] = (
                [tree_state(t) for t in model._model._trees],
                model.predict_score(x).tobytes(),
            )
        # Hard gate: the same trees, depths and scores as the reference fit.
        assert state["shipped"] == state["oracle"], (
            f"the fit diverges from the reference fit on {n} x {x.shape[1]}"
        )
        calls = {
            side: count_calls(functools.partial(_fit, side, x, times))
            for side in ("oracle", "shipped")
        }
        timing = interleaved_pairs(
            functools.partial(_fit, "oracle", x, times),
            functools.partial(_fit, "shipped", x, times),
        )
        rows[n] = {
            "features": x.shape[1],
            "oracle_seconds": statistics.median(timing.reference_seconds),
            "shipped_seconds": statistics.median(timing.candidate_seconds),
            "quartiles": (timing.q1, timing.median, timing.q3),
            "oracle_calls": calls["oracle"],
            "shipped_calls": calls["shipped"],
        }

    table = ResultTable(
        f"CostModel.fit ({spec.name}, feature_matrix rows, {PAIRS} interleaved pairs)",
        columns=[
            "rows",
            "features",
            "oracle_ms",
            "shipped_ms",
            "speedup",
            "speedup_iqr",
            "oracle_calls",
            "shipped_calls",
        ],
    )
    for n, row in rows.items():
        q1, median, q3 = row["quartiles"]
        table.add_row(
            rows=n,
            features=row["features"],
            oracle_ms=row["oracle_seconds"] * 1e3,
            shipped_ms=row["shipped_seconds"] * 1e3,
            speedup=median,
            speedup_iqr=q3 - q1,
            oracle_calls=row["oracle_calls"],
            shipped_calls=row["shipped_calls"],
        )
    return table, rows


@pytest.mark.benchmark(group="cost_model")
def test_cost_model_fit_speedup(benchmark, gpu_v100):
    table, rows = benchmark.pedantic(
        run_cost_model_benchmark, args=(gpu_v100,), rounds=1, iterations=1
    )
    fit_speedup = min(row["quartiles"][1] for row in rows.values())
    emit(render_table(table, precision=2))
    emit(
        f"CostModel.fit speedup over the reference fit: {fit_speedup:.2f}x "
        f"(median of {PAIRS} pairs, worst size)"
    )
    payload = {"gpu": gpu_v100.name, "pairs": PAIRS, "fit_speedup": fit_speedup}
    for n, row in rows.items():
        q1, median, q3 = row["quartiles"]
        payload[f"oracle_seconds_{n}"] = row["oracle_seconds"]
        payload[f"shipped_seconds_{n}"] = row["shipped_seconds"]
        payload[f"fit_speedup_{n}"] = median
        payload[f"fit_speedup_q1_{n}"] = q1
        payload[f"fit_speedup_q3_{n}"] = q3
        payload[f"fit_speedup_iqr_{n}"] = q3 - q1
        payload[f"oracle_fit_calls_{n}"] = row["oracle_calls"]
        payload[f"shipped_fit_calls_{n}"] = row["shipped_calls"]
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
