"""Baseline tuners: the search strategies the paper compares against.

Figure 11 compares the ATE against the automation methods available in a
TVM-style tuner over the *unpruned* configuration space:

* :class:`RandomSearchTuner` — uniform random sampling;
* :class:`SimulatedAnnealingTuner` — measurement-driven simulated annealing
  over the neighbourhood graph;
* :class:`GeneticTuner` — a small genetic algorithm (tournament selection,
  knob-wise crossover, neighbourhood mutation);
* :class:`TVMStyleTuner` — the closest analogue of TVM's XGBoost tuner: the
  same cost-model + parallel-random-walk machinery as the ATE, but run on the
  unpruned space (no optimality-condition constraints).

Every tuner returns the same :class:`~repro.core.autotune.session.TuningResult`
structure so the benchmarks can compare convergence curves directly.

**Step-wise sessions.**  Like the engine, every baseline is a
:class:`~repro.core.autotune.session.Tuner`: its search loop is written once
as a generator (:meth:`~repro.core.autotune.session.Tuner._search`) that
yields proposal batches and receives the corresponding
:class:`~repro.core.autotune.session.TrialRecord` lists back, the one
:class:`~repro.core.autotune.session.TuningSession` runs it step-wise, and
the inherited ``tune()`` drives that session with the tuner's own
:meth:`~repro.core.autotune.config.Measurer.measure_batch`.  The concurrent
:class:`~repro.service.TuningService` drives the very same sessions, packing
their batches into shared executor calls — both produce bit-identical
trajectories because all randomness lives in the generator and is consumed
in proposal order (property-tested in ``tests/test_baseline_sessions.py``).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

from .config import Configuration
from .engine import AutoTuningEngine
from .session import SearchGenerator, TrialRecord, Tuner, TuningResult, TuningSession

__all__ = [
    "BaselineSession",
    "RandomSearchTuner",
    "SimulatedAnnealingTuner",
    "ParallelTemperingSATuner",
    "GeneticTuner",
    "TVMStyleTuner",
]


class BaselineSession(TuningSession):
    """No tuner instantiates this: every tuner runs the one
    :class:`~repro.core.autotune.session.TuningSession`.

    The name stays importable because the end-to-end benchmark's span table
    (``benchmarks/e2e/spans.py``) wraps ``propose``/``update`` on both
    ``engine:TuningSession`` and ``baselines:BaselineSession``.  A plain
    alias would make it wrap the one class twice and trace every session
    call as two spans; wrapping this empty subclass changes nothing.
    """


def _metropolis_accept(
    current_time: float, cand_time: float, temperature: float, rng: random.Random
) -> bool:
    """The Metropolis rule both annealing tuners use, on log-runtimes (so
    it is scale-free).

    An unmeasurable candidate is never accepted and an unmeasurable current
    state is always left; otherwise a faster candidate is accepted outright
    and a slower one with probability ``exp(delta / temperature)``, the
    only case that draws from ``rng``.
    """
    if not math.isfinite(cand_time):
        return False
    if not math.isfinite(current_time):
        return True
    delta = math.log(current_time) - math.log(cand_time)
    return delta >= 0 or rng.random() < math.exp(delta / max(temperature, 1e-6))


class RandomSearchTuner(Tuner):
    """Uniform random sampling of the configuration space."""

    name = "random"

    def _search(self, result: TuningResult) -> SearchGenerator:
        seen = set()
        attempts = 0
        configs: List[Configuration] = []
        while len(configs) < self.max_measurements and attempts < 50 * self.max_measurements:
            attempts += 1
            config = self.space.random_configuration(self.rng)
            if config.key() in seen:
                continue
            seen.add(config.key())
            configs.append(config)
        yield configs


class SimulatedAnnealingTuner(Tuner):
    """Measurement-driven simulated annealing on the neighbourhood graph."""

    name = "simulated_annealing"

    def __init__(self, *args, initial_temperature: float = 0.6, cooling: float = 0.95, **kwargs):
        super().__init__(*args, **kwargs)
        if initial_temperature <= 0 or not (0.0 < cooling < 1.0):
            raise ValueError("initial_temperature must be > 0 and cooling in (0, 1)")
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    def _search(self, result: TuningResult) -> SearchGenerator:
        current = self.space.random_configuration(self.rng)
        (current_record,) = yield [current]
        current_time = current_record.time_seconds
        temperature = self.initial_temperature

        while self._remaining(result) > 0:
            candidate = self.space.neighbor(current, self.rng)
            (record,) = yield [candidate]
            if _metropolis_accept(current_time, record.time_seconds, temperature, self.rng):
                current, current_time = candidate, record.time_seconds
            temperature *= self.cooling


class ParallelTemperingSATuner(Tuner):
    """Batched simulated annealing: tempered chains measured together.

    The single-chain :class:`SimulatedAnnealingTuner` measures one
    configuration per step, so at large budgets Figure 11 compares it
    against batched tuners with a structural (wall-clock) handicap that has
    nothing to do with its search quality.  This variant keeps the
    measurement-driven Metropolis rule but runs ``chains`` walkers on a
    fixed geometric temperature ladder

    ``T_i = initial_temperature * temperature_ratio ** i``  (chain 0 coldest),

    so that every round *all* chains' proposals go through one
    :meth:`~repro.core.autotune.config.Measurer.measure_batch` call.  After
    each round, adjacent chains may exchange states (replica exchange /
    parallel tempering) with the standard acceptance probability
    ``min(1, exp((1/T_i - 1/T_j) * (E_i - E_j)))`` over log-runtime energies
    ``E = log(time)`` — hot chains roam the space and feed improving states
    down the ladder, which replaces the single chain's cooling schedule.

    **RNG streams** (documented for reproducibility): chain ``i`` draws its
    initial state, proposals and Metropolis acceptances from its own
    ``random.Random(seed * 1_000_003 + i)`` stream, so no chain's randomness
    depends on another chain's history or on the chain count; swap decisions
    draw from a separate ``random.Random(seed ^ 0x5CA1AB1E)`` stream, at most
    one draw per adjacent pair per round in coldest-first ladder order (a
    deterministically accepted swap consumes no draw).  When
    the remaining budget is smaller than the chain count, only the coldest
    ``remaining`` chains propose in the final round.
    """

    name = "sa_tempering"

    def __init__(
        self,
        *args,
        chains: int = 8,
        initial_temperature: float = 0.3,
        temperature_ratio: float = 1.7,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if chains < 2:
            raise ValueError("chains must be >= 2 (use SimulatedAnnealingTuner for 1)")
        if initial_temperature <= 0 or temperature_ratio <= 1.0:
            raise ValueError(
                "initial_temperature must be > 0 and temperature_ratio > 1"
            )
        self.chains = chains
        self.temperatures = [
            initial_temperature * temperature_ratio**i for i in range(chains)
        ]
        self._chain_rngs = [
            random.Random(self.seed * 1_000_003 + i) for i in range(chains)
        ]
        self._swap_rng = random.Random(self.seed ^ 0x5CA1AB1E)

    def _search(self, result: TuningResult) -> SearchGenerator:
        k = min(self.chains, self.max_measurements)

        # Round 0: every chain draws its own start; one batched measurement.
        states = [self.space.random_configuration(self._chain_rngs[i]) for i in range(k)]
        records = yield states
        times = [r.time_seconds for r in records]

        while self._remaining(result) > 0:
            live = min(k, self._remaining(result))
            proposals = [
                self.space.neighbor(states[i], self._chain_rngs[i]) for i in range(live)
            ]
            records = yield proposals
            for i in range(live):
                if _metropolis_accept(
                    times[i],
                    records[i].time_seconds,
                    self.temperatures[i],
                    self._chain_rngs[i],
                ):
                    states[i] = proposals[i]
                    times[i] = records[i].time_seconds

            # Replica exchange between adjacent temperatures, coldest first.
            for i in range(k - 1):
                e_i, e_j = times[i], times[i + 1]
                if not (math.isfinite(e_i) and math.isfinite(e_j)):
                    # An unmeasurable state swaps unconditionally towards the
                    # hot end so the cold chains always hold real schedules.
                    swap = math.isfinite(e_j) and not math.isfinite(e_i)
                else:
                    beta_i = 1.0 / self.temperatures[i]
                    beta_j = 1.0 / self.temperatures[i + 1]
                    log_p = (beta_i - beta_j) * (math.log(e_i) - math.log(e_j))
                    swap = log_p >= 0 or self._swap_rng.random() < math.exp(log_p)
                if swap:
                    states[i], states[i + 1] = states[i + 1], states[i]
                    times[i], times[i + 1] = times[i + 1], times[i]


class GeneticTuner(Tuner):
    """A small genetic algorithm (the third automation method of Figure 11)."""

    name = "genetic"

    def __init__(self, *args, population: int = 24, elite: int = 4, mutation_rate: float = 0.3, **kwargs):
        super().__init__(*args, **kwargs)
        if population < 4 or elite < 1 or elite >= population:
            raise ValueError("population must be >= 4 and 1 <= elite < population")
        if not (0.0 <= mutation_rate <= 1.0):
            raise ValueError("mutation_rate must be in [0, 1]")
        self.population_size = population
        self.elite = elite
        self.mutation_rate = mutation_rate

    # ------------------------------------------------------------------ #
    def _crossover(self, a: Configuration, b: Configuration) -> Configuration:
        d_a, d_b = a.as_dict(), b.as_dict()
        child = {k: (d_a[k] if self.rng.random() < 0.5 else d_b[k]) for k in d_a}
        # Tile/thread divisibility may be broken by mixing knobs; repair by
        # resetting the thread counts of any axis that no longer divides.
        for axis in ("x", "y", "z"):
            if child[f"tile_{axis}"] % child[f"threads_{axis}"]:
                child[f"threads_{axis}"] = 1
        candidate = Configuration(**child)
        if self.space.contains(candidate):
            return candidate
        return self.space.neighbor(a, self.rng)

    def _search(self, result: TuningResult) -> SearchGenerator:
        initial = [
            self.space.random_configuration(self.rng)
            for _ in range(min(self.population_size, self.max_measurements))
        ]
        population: List[TrialRecord] = yield initial

        while self._remaining(result) > 0:
            ranked = sorted(
                (p for p in population if p.valid), key=lambda t: t.time_seconds
            ) or population
            elites = ranked[: self.elite]
            # A generation's children depend only on the previous population,
            # so breed them all first and measure the brood in one batch.
            num_children = min(
                self.population_size - len(elites), self._remaining(result)
            )
            child_configs: List[Configuration] = []
            while len(child_configs) < num_children:
                parent_a = self._tournament(ranked)
                parent_b = self._tournament(ranked)
                child = self._crossover(parent_a.config, parent_b.config)
                if self.rng.random() < self.mutation_rate:
                    child = self.space.neighbor(child, self.rng)
                child_configs.append(child)
            children = yield child_configs
            population = elites + children

    def _tournament(self, ranked: Sequence[TrialRecord], k: int = 3) -> TrialRecord:
        contenders = [self.rng.choice(ranked) for _ in range(min(k, len(ranked)))]
        return min(contenders, key=lambda t: t.time_seconds if t.valid else float("inf"))


class TVMStyleTuner(AutoTuningEngine):
    """Cost-model-guided tuner over the *unpruned* space.

    Identical machinery to the ATE (gradient-boosted cost model + parallel
    random-walk explorer) but without the optimality-condition constraints of
    Table 1, so it represents the state-of-the-art ML-based tuner the paper
    compares against (TVM).  Sessions (and therefore ``tune()`` and the
    tuning service) record their results under the ``"tvm_style"`` name.
    """

    name = "tvm_style"

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("pruned", False)
        super().__init__(*args, **kwargs)
