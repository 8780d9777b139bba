"""End-to-end inference-time estimation (Figure 12).

For every convolution layer of a model the runner obtains

* the cuDNN baseline time (library dispatcher on the simulated GPU), and
* the time of the paper's tuned dataflow — either by running the auto-tuning
  engine per layer (slow, faithful) or by using the analytically optimal tile
  of Section 5 directly (fast; the default for the benchmark harness).

Total model time is the sum over convolution layers (weighted by each
layer's repeat count), which matches the paper's claim that convolutions
dominate CNN inference.

Two whole-network optimisations keep the runner fast:

* analytic mode lowers every (layer, algorithm) candidate of a model into one
  profile list and executes it through the batched
  :meth:`~repro.gpusim.executor.GPUExecutor.run_batch` pipeline;
* tuned mode submits every (layer, algorithm) candidate of a model to a
  :class:`~repro.service.TuningService` sharing the runner's
  :class:`~repro.core.autotune.database.TuningDatabase`: identical layers
  coalesce onto one tuning run (ResNet-style networks repeat convolution
  shapes many times), layers already tuned by earlier models/runs are served
  from the database, and the concurrently tuning layers' measurement batches
  are packed into shared executor calls.

Both tuned paths accept any registered search tuner (``runner =
ModelRunner(spec, mode="tuned", tuner="sa_tempering")``), and
:meth:`ModelRunner.compare_tuners` times one model under several tuners at
once — every (layer, algorithm, tuner) candidate goes through a single
service submit/drain, so heterogeneous search algorithms share scheduling
rounds and packed measurement batches exactly like production traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from ..conv.tensor import ConvParams
from ..core.autotune.database import TuningDatabase
from ..core.dataflow.optimality import optimal_tile_direct, optimal_tile_winograd
from ..gpusim.cudnn import CudnnLibrary
from ..gpusim.executor import GPUExecutor
from ..gpusim.kernels import (
    KernelProfile,
    direct_dataflow_profile,
    winograd_dataflow_profile,
)
from ..gpusim.spec import GPUSpec
from ..service import TUNERS, TuningRequest, TuningService
from .layers import ConvLayer, ConvNet

__all__ = ["LayerTiming", "ModelTiming", "ModelRunner"]


@dataclass(frozen=True)
class LayerTiming:
    """Per-layer result of the end-to-end comparison."""

    layer: ConvLayer
    algorithm: str
    ours_seconds: float
    cudnn_seconds: float

    @property
    def speedup(self) -> float:
        if self.ours_seconds <= 0:
            return float("inf")
        return self.cudnn_seconds / self.ours_seconds


@dataclass
class ModelTiming:
    """Whole-model timing summary."""

    model: str
    gpu: str
    layers: List[LayerTiming]

    @property
    def ours_seconds(self) -> float:
        return sum(t.ours_seconds * t.layer.repeat for t in self.layers)

    @property
    def cudnn_seconds(self) -> float:
        return sum(t.cudnn_seconds * t.layer.repeat for t in self.layers)

    @property
    def speedup(self) -> float:
        if self.ours_seconds <= 0:
            return float("inf")
        return self.cudnn_seconds / self.ours_seconds

    def describe(self) -> str:
        return (
            f"{self.model} on {self.gpu}: ours {self.ours_seconds * 1e3:.2f} ms, "
            f"cuDNN {self.cudnn_seconds * 1e3:.2f} ms, speedup {self.speedup:.2f}x"
        )


class ModelRunner:
    """Estimate end-to-end convolution time of a CNN on one simulated GPU."""

    def __init__(
        self,
        spec: GPUSpec,
        mode: Literal["analytic", "tuned"] = "analytic",
        batch: int = 1,
        max_measurements: int = 96,
        seed: int = 0,
        database: Optional[TuningDatabase] = None,
        tuner: str = "ate",
    ) -> None:
        if mode not in ("analytic", "tuned"):
            raise ValueError("mode must be 'analytic' or 'tuned'")
        if tuner not in TUNERS:
            raise ValueError(f"unknown tuner {tuner!r}; expected one of {TUNERS}")
        self.spec = spec
        self.mode = mode
        self.batch = batch
        self.max_measurements = max_measurements
        self.seed = seed
        #: search algorithm tuned mode runs per layer (any entry of TUNERS).
        self.tuner = tuner
        self.library = CudnnLibrary(spec)
        self.executor = GPUExecutor(spec)
        #: shared across every layer/model this runner times; pass one in to
        #: share records across runners, or one with a path to keep them
        #: across processes.
        self.database = database if database is not None else TuningDatabase()

    # ------------------------------------------------------------------ #
    def _choose_algorithm(self, params: ConvParams) -> str:
        """Prefer Winograd for stride-1 3x3 layers with enough channels."""
        if (
            params.winograd_compatible()
            and params.ker_height == 3
            and params.in_channels >= 16
        ):
            return "winograd"
        return "direct"

    def _candidate_algorithms(self, params: ConvParams) -> List[str]:
        """Every applicable template, the way the auto-tuner's template
        manager would pick between schedules."""
        candidates = ["direct"]
        if self._choose_algorithm(params) == "winograd":
            candidates.append("winograd")
        return candidates

    def _analytic_profile(self, params: ConvParams, algorithm: str) -> KernelProfile:
        per_block = self.spec.shared_mem_per_sm // self.spec.dtype_size // 2
        if algorithm == "winograd":
            tile = optimal_tile_winograd(params, per_block, e=2)
            return winograd_dataflow_profile(
                params, tile, e=2, dtype_size=self.spec.dtype_size
            )
        tile = optimal_tile_direct(params, per_block)
        return direct_dataflow_profile(params, tile, dtype_size=self.spec.dtype_size)

    def _ours_analytic(self, params: ConvParams, algorithm: str) -> float:
        return self.executor.run(self._analytic_profile(params, algorithm)).time_seconds

    def _tuning_request(
        self,
        params: ConvParams,
        algorithm: str,
        tuner: Optional[str] = None,
        pruned: Optional[bool] = None,
    ) -> TuningRequest:
        """The service request a (layer, algorithm) candidate submits.

        By default everything tunes the pruned Table-1 domain except
        ``tvm_style``, which searches the unpruned space by definition (and
        therefore bypasses the shared database).
        """
        tuner = self.tuner if tuner is None else tuner
        if pruned is None:
            pruned = tuner != "tvm_style"
        return TuningRequest(
            params,
            self.spec,
            algorithm=algorithm,
            max_measurements=self.max_measurements,
            seed=self.seed,
            tuner=tuner,
            pruned=pruned,
        )

    def _time_layers_tuned(self, layers: Sequence[ConvLayer]) -> List[LayerTiming]:
        """Tuned timing of many layers through one tuning service.

        All (layer, algorithm) candidates are submitted up front and drained
        together: repeated shapes coalesce to one run, previously tuned
        shapes are served from the shared database, and the remaining runs'
        measurement batches are packed into shared executor calls.  Results
        (and the database's hit/miss accounting) are identical to tuning the
        layers one at a time against the same database.
        """
        service = TuningService(database=self.database)
        entries: List[Tuple[int, str]] = []  # (layer index, algorithm)
        futures = []
        all_params = [layer.params(batch=self.batch) for layer in layers]
        for li, params in enumerate(all_params):
            for algorithm in self._candidate_algorithms(params):
                entries.append((li, algorithm))
                futures.append(service.submit(self._tuning_request(params, algorithm)))
        service.drain()

        per_layer: Dict[int, Dict[str, float]] = {}
        for (li, algorithm), future in zip(entries, futures):
            per_layer.setdefault(li, {})[algorithm] = future.result().best_time
        return [
            self._best_timing(layer, all_params[li], per_layer[li])
            for li, layer in enumerate(layers)
        ]

    def _best_timing(
        self, layer: ConvLayer, params: ConvParams, timings: Dict[str, float]
    ) -> LayerTiming:
        """Pick the fastest candidate template and pair it with the cuDNN
        baseline (shared by the per-layer and the whole-model paths)."""
        algorithm = min(timings, key=timings.get)
        return LayerTiming(
            layer=layer,
            algorithm=algorithm,
            ours_seconds=timings[algorithm],
            cudnn_seconds=self.library.run_best(params).time_seconds,
        )

    def time_layer(self, layer: ConvLayer) -> LayerTiming:
        if self.mode == "tuned":
            # The whole-model path on a one-layer list: both algorithm
            # candidates tune concurrently through one service (packed
            # batches, shared-database semantics) instead of sequentially.
            return self._time_layers_tuned([layer])[0]
        params = layer.params(batch=self.batch)
        timings = {
            algorithm: self._ours_analytic(params, algorithm)
            for algorithm in self._candidate_algorithms(params)
        }
        return self._best_timing(layer, params, timings)

    def _time_layers_analytic(self, layers: Sequence[ConvLayer]) -> List[LayerTiming]:
        """Analytic timing of many layers with one batched executor call."""
        entries: List[Tuple[int, str]] = []  # (layer index, algorithm)
        profiles: List[KernelProfile] = []
        all_params = [layer.params(batch=self.batch) for layer in layers]
        for li, params in enumerate(all_params):
            for algorithm in self._candidate_algorithms(params):
                entries.append((li, algorithm))
                profiles.append(self._analytic_profile(params, algorithm))
        executions = self.executor.run_batch(profiles)

        per_layer: Dict[int, Dict[str, float]] = {}
        for (li, algorithm), execution in zip(entries, executions):
            per_layer.setdefault(li, {})[algorithm] = execution.time_seconds
        return [
            self._best_timing(layer, all_params[li], per_layer[li])
            for li, layer in enumerate(layers)
        ]

    def time_model(self, model: ConvNet) -> ModelTiming:
        if self.mode == "analytic":
            timings = self._time_layers_analytic(model.layers)
        else:
            timings = self._time_layers_tuned(model.layers)
        return ModelTiming(model=model.name, gpu=self.spec.name, layers=timings)

    # ------------------------------------------------------------------ #
    def compare_tuners(
        self,
        model: ConvNet,
        tuners: Sequence[str] = ("ate", "random", "sa_tempering", "genetic"),
    ) -> Dict[str, ModelTiming]:
        """Whole-model tuned timing under several search algorithms at once.

        The Figure-11 baseline comparison, at model scale and through the
        production path: every (layer, algorithm, tuner) candidate is
        submitted to *one* :class:`~repro.service.TuningService` and drained
        together, so heterogeneous sessions share scheduling rounds and
        packed measurement batches, and repeated shapes coalesce per tuner.
        The ATE tunes its pruned Table-1 domain (database-backed, like tuned
        mode); every baseline searches the unpruned space, exactly as the
        paper runs them — so baseline legs never serve from or store to the
        shared database and always measure a fresh trajectory.
        """
        unknown = [t for t in tuners if t not in TUNERS]
        if unknown:
            raise ValueError(f"unknown tuners {unknown!r}; expected entries of {TUNERS}")
        service = TuningService(database=self.database)
        all_params = [layer.params(batch=self.batch) for layer in model.layers]
        entries: List[Tuple[str, int, str]] = []  # (tuner, layer index, algorithm)
        futures = []
        for tuner in tuners:
            for li, params in enumerate(all_params):
                for algorithm in self._candidate_algorithms(params):
                    entries.append((tuner, li, algorithm))
                    futures.append(
                        service.submit(
                            self._tuning_request(
                                params,
                                algorithm,
                                tuner=tuner,
                                pruned=tuner == "ate",
                            )
                        )
                    )
        service.drain()

        per_tuner: Dict[str, Dict[int, Dict[str, float]]] = {}
        for (tuner, li, algorithm), future in zip(entries, futures):
            per_tuner.setdefault(tuner, {}).setdefault(li, {})[algorithm] = (
                future.result().best_time
            )
        return {
            tuner: ModelTiming(
                model=model.name,
                gpu=self.spec.name,
                layers=[
                    self._best_timing(layer, all_params[li], per_tuner[tuner][li])
                    for li, layer in enumerate(model.layers)
                ],
            )
            for tuner in tuners
        }
