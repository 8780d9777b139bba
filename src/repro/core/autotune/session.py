"""The one tuning session and the tuner base every search strategy shares.

Every search strategy in this package — the ATE engine (the paper's
Figure 8 loop, Section 6.1) and all five comparison tuners of Figure 11 —
is a :class:`Tuner` whose search loop is one generator, ``records = yield
configs`` (:meth:`Tuner._search`).  A :class:`TuningSession` runs that
generator step-wise, alternating strictly between

* :meth:`~TuningSession.propose` — resume the search and return the next
  batch of configurations to measure (``[]`` once the run is finished), and
* :meth:`~TuningSession.update` — record the measurements of exactly that
  batch, in proposal order, with ``None`` marking infeasible entries.

The session never measures anything itself, so the *driver* chooses the
measurement strategy: :meth:`Tuner.tune` measures each batch immediately
through the tuner's own
:meth:`~repro.core.autotune.config.Measurer.measure_batch`, while the
concurrent :class:`~repro.service.TuningService` interleaves many sessions
and packs their batches into shared executor calls.  Because a session
consumes measurements in exactly the order it proposed them and all
randomness lives in the generator, **any driver that feeds back faithful
measurements reproduces the synchronous run bit-for-bit** — that
equivalence is property-tested on full trajectories for every tuner.

This module also holds the result structures every session fills in
(:class:`TrialRecord`, :class:`TuningResult`) and the :func:`record_trial`
bookkeeping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, List, Optional, Sequence

import numpy as np

from .config import Configuration, Measurer
from .space import SearchSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...conv.tensor import ConvParams
    from ...gpusim.executor import ExecutionResult
    from ...gpusim.spec import GPUSpec

__all__ = [
    "SearchGenerator",
    "TrialRecord",
    "Tuner",
    "TuningResult",
    "TuningSession",
    "record_trial",
]


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


#: generator type of :meth:`Tuner._search`: yields proposal batches, receives
#: the matching trial records back.
SearchGenerator = Generator[List[Configuration], List[TrialRecord], None]


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
    this single helper, so every tuner accounts identically.
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


class TuningSession:
    """One resumable tuning run over a tuner's search generator.

    Every batch the generator yields is handed out by :meth:`propose`, and
    the measurements fed back through :meth:`update` (strict alternation, in
    proposal order, ``None`` marking infeasible entries) are recorded and
    sent into the generator by the next :meth:`propose`.  So the search
    step that picks a batch — for the engine, retraining and the explorer —
    runs inside :meth:`propose`, and :meth:`update` only records.  A session
    may run to completion exactly once per tuner instance: the tuner's RNG
    streams and search machinery are session state.
    """

    def __init__(self, tuner: "Tuner") -> None:
        self.result = tuner._new_result()
        self._finished = False
        self._awaiting = False
        self._gen = tuner._search(self.result)
        self._records: Optional[List[TrialRecord]] = None  # sent at the next propose

    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        return self._finished

    def propose(self) -> List[Configuration]:
        """Next batch of configurations to measure; ``[]`` when finished.

        Resumes the generator until it yields a non-empty batch.  An empty
        yield (a search step that produced nothing to measure) is answered
        with an empty record list instead of being surfaced, because an
        empty batch means *finished* to every driver.
        """
        if self._finished:
            return []
        if self._awaiting:
            raise RuntimeError("propose() called before update() of the previous batch")
        try:
            batch = self._gen.send(self._records)
            while not batch:
                batch = self._gen.send([])
        except StopIteration:
            self._finished = True
            return []
        self._awaiting = True
        return list(batch)

    def update(
        self,
        configs: Sequence[Configuration],
        executions: Sequence[Optional["ExecutionResult"]],
    ) -> None:
        """Feed back the measurements of the last proposed batch."""
        if not self._awaiting:
            raise RuntimeError("update() called without a pending proposal")
        if len(configs) != len(executions):
            raise ValueError("configs and executions must have the same length")
        self._awaiting = False
        self._records = [
            record_trial(self.result, config, execution)
            for config, execution in zip(configs, executions)
        ]


class Tuner:
    """Common scaffolding of every tuner: the ATE engine and the baselines.

    Subclasses implement the :meth:`_search` generator and inherit the
    shared constructor, the budget bookkeeping (:meth:`_remaining`), the
    step-wise :meth:`session` and the synchronous :meth:`tune` driver.
    """

    #: recorded in :attr:`TuningResult.tuner`; every subclass sets it.
    name: str

    def __init__(
        self,
        params: "ConvParams",
        spec: "GPUSpec",
        algorithm: str = "direct",
        max_measurements: int = 256,
        seed: int = 0,
        pruned: bool = False,
        measurer: Optional[Measurer] = None,
    ) -> None:
        if max_measurements < 1:
            raise ValueError("max_measurements must be >= 1")
        self.params = params
        self.spec = spec
        self.algorithm = algorithm
        self.max_measurements = max_measurements
        self.seed = seed
        self.space = SearchSpace(params, spec, algorithm, pruned=pruned)
        self.measurer = measurer or Measurer(params, spec)
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    def _new_result(self) -> TuningResult:
        return TuningResult(
            tuner=self.name,
            params=self.params,
            gpu=self.spec.name,
            space_size=self.space.size(),
        )

    def _remaining(self, result: TuningResult) -> int:
        """Measurement budget left: the one bookkeeping rule every search
        generator loops on."""
        return self.max_measurements - result.num_measurements

    def _search(self, result: TuningResult) -> SearchGenerator:
        """The tuner's search loop as a generator: ``records = yield configs``.

        Receives the :class:`TrialRecord` list of each yielded batch (in
        proposal order); all tuner randomness must be drawn inside, so any
        faithful driver reproduces the trajectory bit-for-bit.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def session(self) -> TuningSession:
        """Start the step-wise session (see :class:`TuningSession`).

        The session borrows the tuner's RNG streams, so at most one session
        per tuner instance may run to completion; :meth:`tune` is simply a
        session driven by the tuner's own measurer.
        """
        return TuningSession(self)

    def tune(self) -> TuningResult:
        """Drive a session to completion with the tuner's own measurer."""
        session = self.session()
        while True:
            batch = session.propose()
            if not batch:
                break
            session.update(batch, self.measurer.measure_batch(batch))
        return session.result
