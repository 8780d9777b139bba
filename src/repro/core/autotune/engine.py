"""The auto-tuning engine (Section 6.1/6.3).

Each tuning iteration performs the three stages of Figure 8:

1. **Model training** — refit the gradient-boosted cost model on every
   (configuration, runtime) pair measured so far;
2. **Configuration searching** — the parallel random-walk explorer proposes a
   batch of promising, not-yet-measured configurations from the searching
   domain (the pruned space of Table 1);
3. **Dataset updating** — the proposed configurations are "measured" on the
   GPU simulator and appended to the dataset.

Tuning starts from ``initial_random`` random configurations and stops when
the measurement budget is exhausted or the best runtime has not improved for
``patience`` consecutive iterations.  The engine records the best-so-far
trajectory (used by the Figure 11 benchmark) and the total number of
measurements (Table 2's *Iterations* column).

**One search loop.**  The loop above is :meth:`AutoTuningEngine._search`, a
``records = yield configs`` generator like every baseline tuner's: it yields
each batch to measure and receives the batch's trial records back, so the
measurement stage happens outside it.  :class:`AutoTuningEngine` is a
:class:`~repro.core.autotune.session.Tuner`, so the one
:class:`~repro.core.autotune.session.TuningSession` runs the loop step-wise
(stages 1 and 2 run inside ``session.propose()``), and the synchronous
:meth:`AutoTuningEngine.tune` and the concurrent
:class:`~repro.service.TuningService` are two drivers of that session.
Because the generator owns all tuning state (RNG, visited set, patience
counter, cost model) and consumes measurements in exactly the order it
proposed them, any driver that feeds back faithful measurements reproduces
the synchronous path bit-for-bit.

Model retraining featurises the dataset incrementally: each iteration
featurises only the newly measured valid configurations, with one
column-wise :func:`~repro.core.autotune.features.feature_matrix` call, and
appends those rows to the training matrix instead of rebuilding it.

An optional :class:`~repro.core.autotune.database.TuningDatabase` lets the
engine skip tuning entirely for ``(ConvParams, GPUSpec, algorithm)`` triples
that were already tuned (by this run or a previous, persisted one).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ...conv.tensor import ConvParams
from ...gpusim.spec import GPUSpec
from ...obs.metrics import NULL_COUNTER
from .config import ConfigArray, Configuration, Measurer
from .cost_model import CostModel
from .explorer import ExplorerConfig, ParallelRandomWalkExplorer
from .features import FEATURE_NAMES, feature_matrix
from .session import SearchGenerator, TrialRecord, Tuner, TuningResult, TuningSession
from .store import TuningRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (database imports us)
    from .database import TuningDatabase

__all__ = ["TrialRecord", "TuningResult", "TuningSession", "AutoTuningEngine"]


class AutoTuningEngine(Tuner):
    """I/O-lower-bound-guided auto-tuner (the paper's ATE)."""

    def __init__(
        self,
        params: ConvParams,
        spec: GPUSpec,
        algorithm: str = "direct",
        batch_size: int = 16,
        max_measurements: int = 256,
        patience: int = 6,
        seed: int = 0,
        explorer_config: Optional[ExplorerConfig] = None,
        pruned: bool = True,
        measurer: Optional[Measurer] = None,
        cost_model: Optional[CostModel] = None,
        database: Optional["TuningDatabase"] = None,
        explorer_cls: Optional[type] = None,
        initial_random: int = 16,
    ) -> None:
        """``explorer_cls`` picks the searching implementation: the default is
        the vectorised lock-step
        :class:`~repro.core.autotune.explorer.ParallelRandomWalkExplorer`;
        pass :class:`~repro.core.autotune.explorer.ScalarRandomWalkExplorer`
        to run the per-configuration reference path (the quality-parity
        property tests drive both).  ``initial_random`` is the size of the
        random initialisation batch (0 starts straight with the explorer)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if initial_random < 0:
            raise ValueError("initial_random must be >= 0")
        super().__init__(
            params,
            spec,
            algorithm=algorithm,
            max_measurements=max_measurements,
            seed=seed,
            pruned=pruned,
            measurer=measurer,
        )
        self.batch_size = batch_size
        self.patience = patience
        self.initial_random = initial_random
        self.cost_model = cost_model if cost_model is not None else CostModel(seed=seed)
        explorer_cls = explorer_cls or ParallelRandomWalkExplorer
        self.explorer = explorer_cls(
            self.space, params, spec, config=explorer_config, seed=seed
        )
        self.database = database
        # Telemetry mirrors (null no-ops until attach_metrics binds real
        # ones); REPRO601 scope, so only counts are recorded — never times.
        self._m_proposals = NULL_COUNTER
        self._m_retrains = NULL_COUNTER

    def attach_metrics(self, metrics) -> None:
        """Bind engine telemetry to a metrics scope (see ``repro.obs``).

        Records ``proposals`` (session proposal batches) and ``retrains``
        (cost-model refits).  Observability is write-only: nothing recorded
        here feeds back into the session RNG, the explorer, or the cost
        model.
        """
        self._m_proposals = metrics.counter("proposals")
        self._m_retrains = metrics.counter("retrains")

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Name recorded in :attr:`TuningResult.tuner` (subclasses override:
        :class:`~repro.core.autotune.baselines.TVMStyleTuner` reports
        ``"tvm_style"``)."""
        return "ate" if self.space.pruned else "ate_unpruned"

    def _search(self, result: TuningResult) -> SearchGenerator:
        """The Figure 8 loop: random initialisation, then retrain → explore
        → measure until the budget or ``patience`` runs out."""
        visited: set = set()
        init: List[Configuration] = []
        for _ in range(min(self.initial_random, self.max_measurements)):
            c = self.space.random_configuration(self.rng)
            if c.key() not in visited:
                visited.add(c.key())
                init.append(c)
        # The initialisation batch seeds the best-so-far time; the patience
        # counter only starts with the explorer batches.
        best_time = math.inf
        if init:
            self._m_proposals.inc()
            yield init
            best_time = _best_valid_time(result)
        stale = 0
        # Incremental featurisation of the measured dataset: the rows of
        # each iteration's new valid trials are appended, never rebuilt.
        features = np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
        times: List[float] = []
        featurised = 0
        while self._remaining(result) > 0:
            # Stage 1: refit the cost model on the new valid trials.
            new = [t for t in result.trials[featurised:] if t.valid]
            featurised = len(result.trials)
            if new:
                configs = ConfigArray.from_configs([t.config for t in new])
                features = np.concatenate(
                    [features, feature_matrix(configs, self.params, self.spec)]
                )
                times.extend(t.time_seconds for t in new)
            if times:
                self.cost_model.fit(features, times)
                self._m_retrains.inc()
            # Stage 2: the explorer proposes from the best trials so far.
            seeds = [
                t.config
                for t in sorted(
                    (t for t in result.trials if t.valid), key=lambda t: t.time_seconds
                )[:8]
            ]
            batch = self.explorer.propose(
                self.cost_model,
                min(self.batch_size, self._remaining(result)),
                seeds=seeds,
                visited=visited,
            )
            if not batch:
                return
            for c in batch:
                visited.add(c.key())
            self._m_proposals.inc()
            # Stage 3: the driver measures the batch.
            yield batch
            new_best = _best_valid_time(result)
            if new_best < best_time * (1 - 1e-3):
                best_time = new_best
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    return

    # ------------------------------------------------------------------ #
    def tune(self) -> TuningResult:
        """Run the full tuning loop and return the result.

        When a :class:`TuningDatabase` is attached, a previously recorded
        result for this ``(params, gpu, algorithm)`` triple is returned
        directly (no measurements), and a freshly tuned result is stored back
        for later runs and for identical layers elsewhere in a network.
        Two guards keep cached results honest: only engines searching the
        canonical pruned domain use the database (an unpruned TVM-style run
        must not serve or consume ATE records), and a record only satisfies
        requests whose measurement budget it covers (a quick low-budget
        record never pre-empts a more thorough search).
        """
        use_database = self.database is not None and self.space.pruned
        executor = self.measurer.executor
        if use_database:
            record = self.database.lookup(
                self.params,
                self.spec,
                self.algorithm,
                budget=self.max_measurements,
                noise=executor.noise,
                noise_seed=executor.seed,
            )
            if record is not None:
                return record.as_result()
        result = super().tune()
        if use_database and any(t.valid for t in result.trials):
            self.database.put(
                TuningRecord.from_result(
                    result,
                    budget=self.max_measurements,
                    noise=executor.noise,
                    noise_seed=executor.seed,
                )
            )
        return result


def _best_valid_time(result: TuningResult) -> float:
    """Fastest valid trial time so far (infinite before the first)."""
    return min((t.time_seconds for t in result.trials if t.valid), default=math.inf)
