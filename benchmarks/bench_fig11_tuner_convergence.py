"""Figure 11 — convergence of the ATE vs TVM-style automation methods.

AlexNet conv1 on the V100 model; the y-axis is the best-so-far floating-point
efficiency (GFLOP/s) of the tuned direct convolution, the x-axis the number
of measured configurations.  The cuDNN baseline is shown as a horizontal
reference.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import FigureData, Series, render_figure
from repro.core.autotune import (
    AutoTuningEngine,
    GeneticTuner,
    RandomSearchTuner,
    SimulatedAnnealingTuner,
    TuningDatabase,
)
from repro.gpusim import CudnnLibrary
from repro.nets import alexnet

BUDGET = 96


def run_figure11(spec):
    layer = alexnet().layer("conv1").params()
    figure = FigureData(
        "Figure 11 — best-so-far GFLOP/s vs number of measurements (AlexNet conv1, "
        f"{spec.name})",
        xlabel="measurements",
        ylabel="GFLOP/s",
    )
    database = TuningDatabase()
    tuners = {
        "ATE (ours)": AutoTuningEngine(
            layer, spec, "direct", max_measurements=BUDGET, seed=11, database=database
        ),
        "SimulatedAnnealing (TVM)": SimulatedAnnealingTuner(layer, spec, "direct", max_measurements=BUDGET, seed=11),
        "Random (TVM)": RandomSearchTuner(layer, spec, "direct", max_measurements=BUDGET, seed=11),
        "Genetic (TVM)": GeneticTuner(layer, spec, "direct", max_measurements=BUDGET, seed=11),
    }
    results = {}
    for name, tuner in tuners.items():
        result = tuner.tune()
        results[name] = result
        series = Series(name)
        for i, gflops in enumerate(result.best_gflops_curve(), start=1):
            series.append(i, gflops)
        figure.add_series(series)

    # The tuned layer is now in the database: a repeat request (same layer
    # elsewhere in the network, or a re-run) costs zero measurements.
    cached = AutoTuningEngine(
        layer, spec, "direct", max_measurements=BUDGET, seed=11, database=database
    ).tune()
    assert cached.from_cache and cached.best_time == results["ATE (ours)"].best_time

    cudnn_gflops = CudnnLibrary(spec).run_direct(layer).gflops
    baseline = Series("cuDNN baseline")
    baseline.append(1, cudnn_gflops)
    baseline.append(BUDGET, cudnn_gflops)
    figure.add_series(baseline)
    return figure, results, cudnn_gflops


@pytest.mark.benchmark(group="fig11")
def test_fig11_tuner_convergence(benchmark, gpu_v100):
    figure, results, cudnn_gflops = benchmark.pedantic(
        run_figure11, args=(gpu_v100,), rounds=1, iterations=1
    )
    emit(render_figure(figure))
    ate = results["ATE (ours)"]
    others = [r for name, r in results.items() if name != "ATE (ours)"]
    emit(
        "Final GFLOP/s — "
        + ", ".join(f"{name}: {r.best_gflops:.0f}" for name, r in results.items())
        + f", cuDNN: {cudnn_gflops:.0f}"
    )
    # The ATE ends above the cuDNN baseline and within a small margin of the
    # best TVM-style method.  This single-seed check fails at seed 11; ROADMAP
    # item 1 plans to replace it with a claim over seeds 0-19, measured
    # against the exhaustive optimum.
    assert ate.best_gflops >= max(o.best_gflops for o in others) * 0.85
    assert ate.best_gflops > cudnn_gflops
    # And it converges sooner (fewer measurements to reach 95% of its final value
    # than the best baseline needs to reach 95% of its own).
    ate_speed = ate.measurements_to_reach(0.95)
    baseline_speed = min(o.measurements_to_reach(0.95) for o in others)
    emit(f"Measurements to reach 95% of final: ATE {ate_speed}, best baseline {baseline_speed}")
