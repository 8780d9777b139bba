"""Tuning requests: the unit of work the tuning service schedules.

A :class:`TuningRequest` pins down *everything* that determines the outcome
of an auto-tuning run — the convolution problem, the target GPU, the
algorithm template, the **search algorithm** (any tuner: the ATE engine or
one of the baseline tuners, plus its hyperparameters), the search budget and
batch shape, the RNG seed, and the measurement conditions (executor noise
amplitude/seed).  Because the request is a frozen dataclass of hashable
fields, the request itself is the coalescing key: two requests compare equal
exactly when running their tuner directly would produce bit-identical
results, so the service can safely answer both from one tuning run.

The only non-identity field is ``deadline`` — pure scheduling metadata for
deadline-aware policies (see :mod:`repro.service.policy`); two requests that
differ only in urgency still coalesce onto one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple, Union

from ..conv.tensor import ConvParams
from ..core.autotune.baselines import (
    BaselineTuner,
    GeneticTuner,
    ParallelTemperingSATuner,
    RandomSearchTuner,
    SimulatedAnnealingTuner,
    TVMStyleTuner,
)
from ..core.autotune.config import Measurer
from ..core.autotune.engine import AutoTuningEngine, TuningResult
from ..core.autotune.session import TuningSessionProtocol
from ..gpusim.spec import GPUSpec

__all__ = ["TUNERS", "TuningRequest"]

#: defaults mirroring Measurer's measurement conditions.
_DEFAULT_NOISE = 0.05
_DEFAULT_NOISE_SEED = 2021

#: search algorithms a request may name.  ``"ate"`` and ``"tvm_style"`` are
#: engine-backed (cost model + explorer); the rest are baseline tuners.
TUNERS = ("ate", "tvm_style", "random", "simulated_annealing", "sa_tempering", "genetic")

_BASELINE_CLASSES = {
    "random": RandomSearchTuner,
    "simulated_annealing": SimulatedAnnealingTuner,
    "sa_tempering": ParallelTemperingSATuner,
    "genetic": GeneticTuner,
}


@dataclass(frozen=True)
class TuningRequest:
    """One conv-tuning request: problem + GPU + algorithm + tuner + budget.

    ``tuner`` names the search algorithm (see :data:`TUNERS`) and
    ``tuner_params`` its hyperparameters as a sorted tuple of ``(name,
    value)`` pairs — a plain dict is accepted and normalised, and both join
    the frozen coalescing key, so requests running different searches (or
    the same search with different knobs) never share a run.  ``pruned``
    selects the searching domain (the ATE's Table 1 domain when True, the
    unpruned TVM-style space when False; only pruned requests may be served
    from or stored to a shared
    :class:`~repro.core.autotune.database.TuningDatabase` — the database is
    tuner-agnostic "best known configuration" storage, its records carry the
    producing tuner's name).  ``noise`` and ``noise_seed`` are the executor's
    measurement conditions — requests measured under different conditions
    never coalesce because their times would not be comparable.  ``deadline``
    (optional, smaller = more urgent) is scheduling metadata only: it is
    excluded from equality/hash, so identical requests with different
    deadlines still coalesce.
    """

    params: ConvParams
    spec: GPUSpec
    algorithm: str = "direct"
    max_measurements: int = 256
    batch_size: int = 16
    initial_random: int = 16
    patience: int = 6
    seed: int = 0
    pruned: bool = True
    noise: float = _DEFAULT_NOISE
    noise_seed: int = _DEFAULT_NOISE_SEED
    tuner: str = "ate"
    tuner_params: Tuple[Tuple[str, Union[int, float]], ...] = ()
    deadline: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.algorithm not in ("direct", "winograd"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_measurements < 1 or self.batch_size < 1:
            raise ValueError("max_measurements and batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.tuner not in TUNERS:
            raise ValueError(f"unknown tuner {self.tuner!r}; expected one of {TUNERS}")
        if isinstance(self.tuner_params, Mapping):
            items = self.tuner_params.items()
        else:
            items = (tuple(pair) for pair in self.tuner_params)
        # Sorted canonical form whatever the input order: two requests with
        # the same hyperparameters must share one coalescing key.
        object.__setattr__(self, "tuner_params", tuple(sorted(items)))
        if self.tuner in ("ate", "tvm_style") and self.tuner_params:
            raise ValueError(
                f"{self.tuner!r} takes its hyperparameters from the request fields "
                "(batch_size / initial_random / patience); tuner_params must be empty"
            )
        if self.tuner == "tvm_style" and self.pruned:
            raise ValueError("tvm_style tunes the unpruned space; pass pruned=False")
        if self.deadline is not None:
            if not isinstance(self.deadline, (int, float)) or self.deadline != self.deadline:
                raise ValueError("deadline must be a number or None")

    # ------------------------------------------------------------------ #
    def executor_group(self) -> tuple:
        """Measurement-compatibility key: requests in the same group may be
        packed into one executor call (same device, same noise conditions)."""
        return (self.spec, self.noise, self.noise_seed)

    def make_measurer(self) -> Measurer:
        return Measurer(self.params, self.spec, noise=self.noise, seed=self.noise_seed)

    def make_engine(self) -> AutoTuningEngine:
        """Instantiate the engine an ``"ate"``/``"tvm_style"`` request names.

        Driving ``engine.tune(initial_random=self.initial_random)`` directly
        and scheduling the request through the service yield bit-identical
        results — that equivalence is the service's core contract.
        """
        cls = TVMStyleTuner if self.tuner == "tvm_style" else AutoTuningEngine
        return cls(
            self.params,
            self.spec,
            algorithm=self.algorithm,
            batch_size=self.batch_size,
            max_measurements=self.max_measurements,
            patience=self.patience,
            seed=self.seed,
            pruned=self.pruned,
            measurer=self.make_measurer(),
        )

    def make_tuner(self) -> Union[AutoTuningEngine, BaselineTuner]:
        """Instantiate whatever tuner this request names."""
        if self.tuner in ("ate", "tvm_style"):
            return self.make_engine()
        cls = _BASELINE_CLASSES[self.tuner]
        return cls(
            self.params,
            self.spec,
            algorithm=self.algorithm,
            max_measurements=self.max_measurements,
            seed=self.seed,
            pruned=self.pruned,
            measurer=self.make_measurer(),
            **dict(self.tuner_params),
        )

    def make_session(
        self,
    ) -> Tuple[Union[AutoTuningEngine, BaselineTuner], TuningSessionProtocol]:
        """A fresh tuner plus its step-wise session, ready for a scheduler.

        The tuner owns the measurer the session's proposals must be measured
        with (``tuner.measurer``); the session consults no database — lookups
        and stores are the driving service's job.
        """
        tuner = self.make_tuner()
        if isinstance(tuner, AutoTuningEngine):
            return tuner, tuner.session(self.initial_random)
        return tuner, tuner.session()

    def tune_direct(self) -> TuningResult:
        """Reference run: drive this request's tuner synchronously.

        No service, no shared database — exactly what a standalone caller
        would get.  The service's bit-identity property is defined (and
        tested) against this function.
        """
        tuner = self.make_tuner()
        if isinstance(tuner, AutoTuningEngine):
            return tuner.tune(initial_random=self.initial_random)
        return tuner.tune()

    def describe(self) -> str:
        return (
            f"TuningRequest[{self.tuner} {self.algorithm} {self.params.describe()} on "
            f"{self.spec.name}, budget={self.max_measurements}, seed={self.seed}]"
        )
