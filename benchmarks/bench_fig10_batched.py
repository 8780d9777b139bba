"""Figure 10 — batched direct convolution vs cuDNN.

``Cin = 256``, ``Cout = 128``, 3x3 kernels, stride 1, ``Hin = Win ∈
{14, 56, 112}``, batch ∈ {32, 64, 128}; speedup of the dataflow over cuDNN
when both scale the batch dimension.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.core.dataflow import optimal_tile_direct
from repro.gpusim import CudnnLibrary, GPUExecutor, direct_dataflow_profile

SIZES = (14, 56, 112)
BATCHES = (32, 64, 128)


def run_figure10(spec, per_block):
    lib = CudnnLibrary(spec)
    executor = GPUExecutor(spec)
    table = ResultTable(
        f"Figure 10 — batched direct convolution speedup over cuDNN ({spec.name}, "
        "Cin=256, Cout=128, 3x3, stride 1)",
        columns=["Hin=Win", "batch", "ours_ms", "cudnn_ms", "speedup"],
    )
    # The whole sweep is one executor batch: build every profile, then run
    # them through the vectorised pipeline in a single call.
    cases = [
        (size, batch, ConvParams.square(size, 256, 128, kernel=3, stride=1, padding=1, batch=batch))
        for size in SIZES
        for batch in BATCHES
    ]
    profiles = [
        direct_dataflow_profile(params, optimal_tile_direct(params, per_block), dtype_size=spec.dtype_size)
        for _, _, params in cases
    ]
    for (size, batch, params), ours in zip(cases, executor.run_batch(profiles)):
        base = lib.run_direct(params)
        table.add_row(
            **{
                "Hin=Win": size,
                "batch": batch,
                "ours_ms": ours.time_ms,
                "cudnn_ms": base.result.time_ms,
                "speedup": base.time_seconds / ours.time_seconds,
            }
        )
    return table


@pytest.mark.benchmark(group="fig10")
def test_fig10_batched_direct_conv(benchmark, gpu_1080ti, per_block_elements):
    table = benchmark.pedantic(
        run_figure10, args=(gpu_1080ti, per_block_elements), rounds=1, iterations=1
    )
    emit(render_table(table, precision=2))
    speedups = table.column("speedup")
    mean = sum(speedups) / len(speedups)
    emit(f"Figure 10 mean batched speedup: {mean:.2f}x (paper reports 1.51x)")
    # Shape checks: the dataflow wins on every batched configuration, as in the
    # paper.  Deviation from the paper: the simulator's speedup varies less
    # with the feature-map size than the paper's hardware does, because in
    # the model batching already saturates input reuse.  So the size trend
    # is not asserted.
    assert mean > 1.0
    assert all(s > 1.0 for s in speedups)
