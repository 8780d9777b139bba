"""The step-wise tuning-session protocol shared by every tuner.

Every search strategy in this package — the ATE engine and all five baseline
tuners — runs as a *session*: a resumable object that owns the search state
(all RNG included) and alternates strictly between

* :meth:`~TuningSessionProtocol.propose` — return the next batch of
  configurations to measure (``[]`` once the run is finished), and
* :meth:`~TuningSessionProtocol.update` — receive the measurements of exactly
  that batch, in proposal order, with ``None`` marking infeasible entries.

The session never measures anything itself, so the *driver* chooses the
measurement strategy: the synchronous ``tune()`` methods measure each batch
immediately through the tuner's own
:meth:`~repro.core.autotune.config.Measurer.measure_batch`, while the
concurrent :class:`~repro.service.TuningService` interleaves many sessions
and packs their batches into shared executor calls.  Because a session
consumes measurements in exactly the order it proposed them and all
randomness lives inside the session, **any driver that feeds back faithful
measurements reproduces the synchronous run bit-for-bit** — that equivalence
is property-tested on full trajectories for every tuner.

This module holds the protocol itself plus the result structures every
session fills in (:class:`TrialRecord`, :class:`TuningResult`) and the shared
:func:`record_trial` bookkeeping, so the engine
(:class:`~repro.core.autotune.engine.TuningSession`) and the baselines
(:class:`~repro.core.autotune.baselines.BaselineSession`) record trials
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...conv.tensor import ConvParams
    from ...gpusim.executor import ExecutionResult
    from .config import Configuration

__all__ = ["TrialRecord", "TuningResult", "TuningSessionProtocol", "record_trial"]


@dataclass(frozen=True)
class TrialRecord:
    """One measured configuration."""

    index: int
    config: "Configuration"
    time_seconds: float
    gflops: float

    @property
    def valid(self) -> bool:
        return np.isfinite(self.time_seconds) and self.time_seconds > 0


@dataclass
class TuningResult:
    """Outcome of one tuning run."""

    tuner: str
    params: "ConvParams"
    gpu: str
    trials: List[TrialRecord] = field(default_factory=list)
    space_size: int = 0
    #: True when the result was served from a TuningDatabase instead of tuning.
    from_cache: bool = False

    @property
    def num_measurements(self) -> int:
        return len(self.trials)

    @property
    def best_trial(self) -> TrialRecord:
        valid = [t for t in self.trials if t.valid]
        if not valid:
            raise RuntimeError("no valid measurement recorded")
        return min(valid, key=lambda t: t.time_seconds)

    @property
    def best_config(self) -> "Configuration":
        return self.best_trial.config

    @property
    def best_time(self) -> float:
        return self.best_trial.time_seconds

    @property
    def best_gflops(self) -> float:
        return self.best_trial.gflops

    def best_gflops_curve(self) -> List[float]:
        """Best-so-far throughput after each measurement (Figure 11's y-axis).

        Ranked by time, as :attr:`best_trial` is, in direct-equivalent
        GFLOP/s: ``params.flops / t / 1e9`` for the fastest valid time ``t``
        so far (0 before the first valid trial).  The curve never decreases
        and ends at ``params.flops / best_time / 1e9``, which is
        :attr:`best_gflops` for direct convolution.  Winograd curves are in
        these units too: a Winograd trial's own GFLOP/s counts FLOPs that
        depend on its tile size, so a slower trial can show more of them.
        """
        curve: List[float] = []
        best = math.inf
        for t in self.trials:
            if t.valid:
                best = min(best, t.time_seconds)
            curve.append(self.params.flops / best / 1e9 if best < math.inf else 0.0)
        return curve

    def measurements_to_reach(self, fraction: float = 0.99) -> int:
        """Number of measurements needed to reach ``fraction`` of the final
        point of :meth:`best_gflops_curve` (a convergence-speed summary used
        by the benchmarks)."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        curve = self.best_gflops_curve()
        if not curve or curve[-1] <= 0.0:
            # No valid trial was ever recorded: the curve is identically zero
            # and "fraction of the final best" is meaningless — report 0
            # instead of pretending convergence at the first measurement.
            return 0
        target = fraction * curve[-1]
        for i, v in enumerate(curve):
            if v >= target:
                return i + 1
        return len(curve)


def record_trial(
    result: TuningResult,
    config: "Configuration",
    execution: Optional["ExecutionResult"],
) -> TrialRecord:
    """Append one measurement outcome to ``result``.

    ``execution is None`` marks an infeasible configuration and is recorded as
    an invalid (infinite-time) trial; every session records trials through
    this single helper so the engine and the baselines account identically.
    """
    index = len(result.trials)
    if execution is None:
        record = TrialRecord(
            index=index, config=config, time_seconds=float("inf"), gflops=0.0
        )
    else:
        record = TrialRecord(
            index=index,
            config=config,
            time_seconds=execution.time_seconds,
            gflops=execution.achieved_gflops,
        )
    result.trials.append(record)
    return record


@runtime_checkable
class TuningSessionProtocol(Protocol):
    """Structural interface every step-wise tuning session satisfies.

    Implementations: :class:`~repro.core.autotune.engine.TuningSession` (the
    ATE / TVM-style engine) and
    :class:`~repro.core.autotune.baselines.BaselineSession` (random search,
    simulated annealing, parallel tempering, genetic).  The
    :class:`~repro.service.TuningService` schedules any mixture of them.
    """

    result: TuningResult

    @property
    def finished(self) -> bool:  # pragma: no cover - protocol stub
        ...

    def propose(self) -> List["Configuration"]:  # pragma: no cover - stub
        ...

    def update(
        self,
        configs: Sequence["Configuration"],
        executions: Sequence[Optional["ExecutionResult"]],
    ) -> None:  # pragma: no cover - protocol stub
        ...
