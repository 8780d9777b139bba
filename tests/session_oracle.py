"""Reference step-wise session for :class:`repro.core.autotune.AutoTuningEngine`.

:class:`OracleSession` is the hand-written state machine the engine's
Figure 8 loop ran as before it became the ``records = yield configs``
generator ``AutoTuningEngine._search`` behind the one
:class:`repro.core.autotune.session.TuningSession`.  It is kept verbatim
apart from the class name, the engine's result name (``engine.name``, once
``engine.result_name``) and its feature rows, which it computes one at a
time with ``feature_vector`` because the engine no longer keeps a feature
cache; it takes ``initial_random`` as an argument because the engine no
longer does.  ``tests/test_session_oracle.py`` drives
identical engines through it and through ``engine.session()`` and compares
the results' wire forms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.autotune.config import Configuration
from repro.core.autotune.features import feature_vector
from repro.core.autotune.session import TuningResult, record_trial
from repro.gpusim.executor import ExecutionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.autotune.engine import AutoTuningEngine


class OracleSession:
    """One resumable tuning run, driven step-wise from outside.

    The session is the engine's Figure 8 loop with the measurement stage cut
    out: :meth:`propose` hands the caller the next batch of configurations,
    :meth:`update` takes the caller's measurements back.  Strict alternation
    is required — every proposed batch must be measured and reported via
    :meth:`update` (in proposal order, with ``None`` marking infeasible
    entries) before the next :meth:`propose`.

    Drivers:

    * :meth:`AutoTuningEngine.tune` — the synchronous API; measures each
      batch immediately with the engine's own measurer;
    * :class:`repro.service.TuningService` — interleaves many sessions and
      packs their batches into shared executor calls.

    Both produce bit-identical :class:`TuningResult` values because all
    randomness (dataset initialisation, explorer walks, cost-model
    subsampling) lives inside the session and is consumed in proposal order.
    """

    def __init__(self, engine: "AutoTuningEngine", initial_random: int = 16) -> None:
        self.engine = engine
        self.initial_random = initial_random
        self.result = TuningResult(
            tuner=engine.name,
            params=engine.params,
            gpu=engine.spec.name,
            space_size=engine.space.size(),
        )
        self._visited: set = set()
        self._started = False
        self._finished = False
        self._awaiting_update = False
        self._init_pending = True  # the next update() is the random-init batch
        self._best_time = float("inf")
        self._stale_iterations = 0
        # Incremental featurisation of the measured dataset: one row per new
        # valid trial is appended as trials arrive, never rebuilt.
        self._trained_rows: List[np.ndarray] = []
        self._trained_times: List[float] = []
        self._featurised = 0  # trials already scanned into the rows above

    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        return self._finished

    def propose(self) -> List[Configuration]:
        """Next batch of configurations to measure; ``[]`` when finished."""
        if self._finished:
            return []
        if self._awaiting_update:
            raise RuntimeError("propose() called before update() of the previous batch")
        engine = self.engine
        if not self._started:
            self._started = True
            # Stage 0: random initialisation of the dataset.
            init: List[Configuration] = []
            for _ in range(min(self.initial_random, engine.max_measurements)):
                c = engine.space.random_configuration(engine.rng)
                if c.key() not in self._visited:
                    self._visited.add(c.key())
                    init.append(c)
            if not init:
                # No initialisation requested (initial_random=0): an empty
                # batch must not read as "run finished" — skip straight to
                # the explorer phase, exactly like the pre-session loop did.
                self._init_pending = False
                return self.propose()
            self._awaiting_update = True
            engine._m_proposals.inc()
            return init

        if self.result.num_measurements >= engine.max_measurements:
            self._finished = True
            return []
        self._retrain()
        seeds = [
            t.config
            for t in sorted(
                (t for t in self.result.trials if t.valid), key=lambda t: t.time_seconds
            )[:8]
        ]
        batch_size = min(
            engine.batch_size, engine.max_measurements - self.result.num_measurements
        )
        batch = engine.explorer.propose(
            engine.cost_model, batch_size, seeds=seeds, visited=self._visited
        )
        if not batch:
            self._finished = True
            return []
        for c in batch:
            self._visited.add(c.key())
        self._awaiting_update = True
        engine._m_proposals.inc()
        return batch

    def update(
        self,
        configs: Sequence[Configuration],
        executions: Sequence[Optional[ExecutionResult]],
    ) -> None:
        """Feed back the measurements of the last proposed batch.

        ``executions`` must align with ``configs`` (the proposal order);
        ``None`` marks an infeasible configuration and is recorded as an
        invalid (infinite-time) trial, exactly like the synchronous path.
        """
        if not self._awaiting_update:
            raise RuntimeError("update() called without a pending proposal")
        if len(configs) != len(executions):
            raise ValueError("configs and executions must have the same length")
        self._awaiting_update = False
        result = self.result
        first_batch = self._init_pending
        self._init_pending = False
        for config, execution in zip(configs, executions):
            record_trial(result, config, execution)

        new_best = min(
            (t.time_seconds for t in result.trials if t.valid), default=float("inf")
        )
        if first_batch:
            # The initialisation batch seeds the best-so-far time; the
            # patience counter only starts with the explorer batches.
            self._best_time = new_best
            return
        if new_best < self._best_time * (1 - 1e-3):
            self._best_time = new_best
            self._stale_iterations = 0
        else:
            self._stale_iterations += 1
            if self._stale_iterations >= self.engine.patience:
                self._finished = True

    # ------------------------------------------------------------------ #
    def _retrain(self) -> None:
        """Refit the cost model, featurising only the new valid trials."""
        trials = self.result.trials
        engine = self.engine
        for t in trials[self._featurised :]:
            if t.valid:
                self._trained_rows.append(feature_vector(t.config, engine.params, engine.spec))
                self._trained_times.append(t.time_seconds)
        self._featurised = len(trials)
        if not self._trained_rows:
            return
        self.engine.cost_model.fit(np.stack(self._trained_rows), self._trained_times)
        self.engine._m_retrains.inc()
