#!/usr/bin/env python3
"""Auto-tune one convolution layer and compare tuners (Figure 11 in miniature).

Tunes AlexNet conv3 on the simulated V100 with the I/O-lower-bound-guided
engine (ATE) and with the TVM-style baseline, then prints both convergence
curves and the cuDNN reference.

ATE results persist in the default on-disk tuning database
(``~/.cache/repro-tuning.json``, override with ``$REPRO_TUNING_DB``): run the
example twice and the second ATE "search" is a zero-measurement cache hit.
The file holds an append-only record log (each record is on disk as soon as
it is tuned; the closing ``save()`` compacts it), and a JSON map that an
older build left there is converted to a log on first open.

Run with:  python examples/tune_conv_layer.py
"""

from repro.analysis import Series, render_series
from repro.core.autotune import AutoTuningEngine, TVMStyleTuner, TuningDatabase
from repro.obs import format_describe
from repro.gpusim import V100, CudnnLibrary
from repro.nets import alexnet

BUDGET = 96


def main() -> None:
    params = alexnet().layer("conv3").params()
    print("Tuning", params.describe(), "on", V100.describe())

    database = TuningDatabase.default()
    ate = AutoTuningEngine(
        params, V100, "direct", max_measurements=BUDGET, seed=1, database=database
    ).tune()
    tvm = TVMStyleTuner(params, V100, "direct", max_measurements=BUDGET, seed=1).tune()
    cudnn = CudnnLibrary(V100).run_direct(params)

    for name, result in (("ATE (pruned domain)", ate), ("TVM-style (full space)", tvm)):
        series = Series(name)
        for i, g in enumerate(result.best_gflops_curve(), start=1):
            series.append(i, g)
        print(render_series(series))
        print(
            f"    space={result.space_size:,} configs, best={result.best_gflops:.0f} GFLOP/s, "
            f"converged (99%) after {result.measurements_to_reach(0.99)} measurements"
        )
        print(f"    best config: {result.best_config.describe()}")

    print(f"\ncuDNN baseline: {cudnn.gflops:.0f} GFLOP/s")
    print(f"ATE speedup over cuDNN: {cudnn.time_seconds / ate.best_time:.2f}x")
    print(f"ATE speedup over TVM-style best: {tvm.best_time / ate.best_time:.2f}x")

    if ate.from_cache:
        print("\nATE result served from the tuning database (zero measurements).")
    saved = database.save()
    print(f"Tuning database: {format_describe(database.describe())} -> {saved}")


if __name__ == "__main__":
    main()
