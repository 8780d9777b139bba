"""Configuration explorer: parallel random walks guided by the cost model.

Section 6.2's searching process: ``n_s`` walkers start from random (or
previously promising) configurations; each walker repeatedly steps to a
neighbouring configuration, accepting moves that the cost model predicts to
be faster (with a small temperature so the walk can escape local minima);
after a fixed number of steps the best-predicted configurations visited by
all walkers are returned as the next measurement batch.

Two implementations share that algorithm:

* :class:`ScalarRandomWalkExplorer` — one ``Configuration`` object at a time
  through ``space.neighbor`` / per-row features (memoised in its own
  :class:`~repro.core.autotune.features.FeatureCache`) / a scalar Metropolis
  loop.  It is the quality reference: simple to audit, and the vectorised
  explorer is property-tested to find configurations at least as good at
  equal budget.
* :class:`ParallelRandomWalkExplorer` — the search-side hot path.  All
  walkers advance in lock-step over a
  :class:`~repro.core.autotune.config.ConfigArray`: one batched
  :meth:`~repro.core.autotune.space.SearchSpace.neighbor_batch` draw (every
  retry round of every walker in one pass), one
  :meth:`~repro.core.autotune.cost_model.CostModel.predict_score` call on a
  column-wise :func:`~repro.core.autotune.features.feature_matrix`, and one
  vectorised Metropolis accept per step.  A step works on ``num_walkers``
  rows (16 by default), so its cost is the number of NumPy calls it makes,
  and each of those parts keeps that number small.

**RNG streams** (documented for reproducibility, same precedent as
:class:`~repro.core.autotune.baselines.ParallelTemperingSATuner`'s per-chain
streams).  The vectorised explorer derives its generators from
``np.random.SeedSequence(seed).spawn(2 + num_walkers)``:

* child ``0`` — the *fill* stream: initial walker states that are not seeded
  from measurements, infeasible-neighbour restarts, and the ε-greedy /
  shortfall random fills at the end of each proposal;
* child ``1`` — the *score* stream: the random scores used while the cost
  model is still untrained;
* child ``2 + i`` — walker ``i``'s private stream.  Each :meth:`propose`
  call draws walker ``i``'s whole uniform block — shape ``(walk_length,
  3 * neighbor_rounds + 1)``, i.e. per step the
  :meth:`~repro.core.autotune.space.SearchSpace.neighbor_batch` draws
  followed by one Metropolis uniform — in a single call, so a walker's
  stream position depends only on how many proposals ran, never on other
  walkers' histories or on which retry round found a feasible neighbour.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...conv.tensor import ConvParams
from ...gpusim.spec import GPUSpec
from .config import ConfigArray, Configuration
from .cost_model import CostModel
from .features import FeatureCache, feature_matrix
from .space import SearchSpace

__all__ = [
    "ExplorerConfig",
    "ParallelRandomWalkExplorer",
    "ScalarRandomWalkExplorer",
]


@dataclass(frozen=True)
class ExplorerConfig:
    """Hyper-parameters of the parallel random-walk explorer."""

    num_walkers: int = 16
    walk_length: int = 24
    temperature: float = 0.08
    restart_fraction: float = 0.25
    epsilon: float = 0.1  # fraction of each batch drawn uniformly at random
    neighbor_rounds: int = 8  # lock-step retries per neighbour draw (vectorised)

    def __post_init__(self) -> None:
        if self.num_walkers < 1 or self.walk_length < 1:
            raise ValueError("num_walkers and walk_length must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if not (0.0 <= self.restart_fraction <= 1.0):
            raise ValueError("restart_fraction must be in [0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if self.neighbor_rounds < 1:
            raise ValueError("neighbor_rounds must be >= 1")


class ScalarRandomWalkExplorer:
    """Reference explorer: cost-model-guided random walks, one config at a time.

    This is the original Python-level implementation of Section 6.2's
    searching process, retained as the quality yardstick for the vectorised
    :class:`ParallelRandomWalkExplorer` (same hyper-parameters, same
    acceptance rule; the property tests compare best-found runtimes at equal
    measurement budget).
    """

    def __init__(
        self,
        space: SearchSpace,
        params: ConvParams,
        spec: GPUSpec,
        config: Optional[ExplorerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.space = space
        self.params = params
        self.spec = spec
        self.config = config or ExplorerConfig()
        self.rng = random.Random(seed)
        #: walkers revisit configurations across proposals; cache their rows.
        self._features = FeatureCache(params, spec)

    # ------------------------------------------------------------------ #
    def _score(self, model: Optional[CostModel], configs: Sequence[Configuration]) -> np.ndarray:
        """Predicted score (higher = faster); random scores when untrained."""
        if model is not None and model.is_trained:
            return model.predict_score(self._features.matrix(configs))
        return np.asarray([self.rng.random() for _ in configs])

    def propose(
        self,
        model: Optional[CostModel],
        batch_size: int,
        seeds: Sequence[Configuration] = (),
        visited: Optional[Set[Tuple]] = None,
    ) -> List[Configuration]:
        """Return up to ``batch_size`` promising, unvisited configurations.

        ``seeds`` (typically the best configurations measured so far) start a
        fraction of the walkers; the rest start from random samples.
        """
        visited = set(visited or ())
        cfg = self.config
        walkers: List[Configuration] = []
        seeds = [s for s in seeds if self.space.contains(s)]
        num_seeded = min(len(seeds), int(round(cfg.num_walkers * (1 - cfg.restart_fraction))))
        walkers.extend(seeds[:num_seeded])
        while len(walkers) < cfg.num_walkers:
            walkers.append(self.space.random_configuration(self.rng))

        scores = self._score(model, walkers)
        best_seen: Dict[Tuple, Tuple[float, Configuration]] = {}
        for w, s in zip(walkers, scores):
            best_seen[w.key()] = (float(s), w)

        current = list(walkers)
        current_scores = list(map(float, scores))
        for _ in range(cfg.walk_length):
            proposals = [self.space.neighbor(c, self.rng) for c in current]
            prop_scores = self._score(model, proposals)
            for i, (cand, cand_score) in enumerate(zip(proposals, prop_scores)):
                cand_score = float(cand_score)
                delta = cand_score - current_scores[i]
                accept = delta >= 0 or (
                    cfg.temperature > 0
                    and self.rng.random() < math.exp(delta / cfg.temperature)
                )
                if accept:
                    current[i] = cand
                    current_scores[i] = cand_score
                key = cand.key()
                if key not in best_seen or cand_score > best_seen[key][0]:
                    best_seen[key] = (cand_score, cand)

        # ε-greedy exploration: reserve part of the batch for uniform samples so
        # a misleading early cost model cannot trap every walker in one basin.
        num_random = int(round(cfg.epsilon * batch_size)) if batch_size > 1 else 0
        num_guided = batch_size - num_random

        ranked = sorted(best_seen.values(), key=lambda t: -t[0])
        batch: List[Configuration] = []
        for _, candidate in ranked:
            if candidate.key() in visited:
                continue
            batch.append(candidate)
            visited.add(candidate.key())
            if len(batch) >= num_guided:
                break
        # One uniform-random fill covers both the reserved ε-greedy slots and
        # any guided slots the walks could not fill with unvisited candidates.
        # (The previous code had two identical fill loops — both targeting
        # batch_size, since num_guided + num_random == batch_size — whose
        # attempt caps added up; the single loop keeps the combined cap.)
        attempts = 0
        while len(batch) < batch_size and attempts < 40 * batch_size:
            attempts += 1
            candidate = self.space.random_configuration(self.rng)
            if candidate.key() in visited:
                continue
            batch.append(candidate)
            visited.add(candidate.key())
        return batch


class ParallelRandomWalkExplorer:
    """Search the configuration space with cost-model-guided random walks.

    The vectorised lock-step implementation (see the module docstring for the
    algorithm and the per-walker RNG stream layout): walker state lives in a
    :class:`ConfigArray`, each step advances *all* walkers with one batched
    neighbour draw, one cost-model scoring call and one vectorised Metropolis
    accept, and the visited-candidate ranking deduplicates on the rows of
    the integer :meth:`ConfigArray.key_matrix` instead of per-config key
    tuples.
    """

    def __init__(
        self,
        space: SearchSpace,
        params: ConvParams,
        spec: GPUSpec,
        config: Optional[ExplorerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.space = space
        self.params = params
        self.spec = spec
        self.config = config or ExplorerConfig()
        self.seed = seed
        children = np.random.SeedSequence(seed).spawn(2 + self.config.num_walkers)
        self._fill_rng = np.random.default_rng(children[0])
        self._score_rng = np.random.default_rng(children[1])
        self._walker_rngs = [np.random.default_rng(c) for c in children[2:]]

    # ------------------------------------------------------------------ #
    def _score(self, model: Optional[CostModel], configs: ConfigArray) -> np.ndarray:
        """Predicted score (higher = faster); random scores when untrained."""
        if model is None or not model.is_trained:
            return self._score_rng.random(len(configs))
        return model.predict_score(feature_matrix(configs, self.params, self.spec))

    def _walker_blocks(self) -> np.ndarray:
        """Per-walker uniform blocks for one proposal (see module docstring).

        Shape ``(num_walkers, walk_length, 3 * neighbor_rounds + 1)``; the
        block of walker ``i`` comes entirely from stream child ``2 + i``.
        """
        cfg = self.config
        width = SearchSpace.DRAWS_PER_NEIGHBOR_ROUND * cfg.neighbor_rounds + 1
        return np.stack(
            [g.random((cfg.walk_length, width)) for g in self._walker_rngs]
        )

    def propose(
        self,
        model: Optional[CostModel],
        batch_size: int,
        seeds: Sequence[Configuration] = (),
        visited: Optional[Set[Tuple]] = None,
    ) -> List[Configuration]:
        """Return up to ``batch_size`` promising, unvisited configurations.

        ``seeds`` (typically the best configurations measured so far) start a
        fraction of the walkers; the rest start from random samples.
        """
        visited = set(visited or ())
        cfg = self.config
        seeds = [s for s in seeds if self.space.contains(s)]
        num_seeded = min(len(seeds), int(round(cfg.num_walkers * (1 - cfg.restart_fraction))))
        parts = []
        if num_seeded:
            parts.append(ConfigArray.from_configs(seeds[:num_seeded]))
        if cfg.num_walkers - num_seeded:
            parts.append(
                self.space.sample_batch(self._fill_rng, cfg.num_walkers - num_seeded)
            )
        current = ConfigArray.concat(parts)
        current_scores = self._score(model, current)

        # Every candidate any walker visits, with its score; deduplicated and
        # ranked after the walk (same max-score-per-key rule as the scalar
        # explorer's best_seen dict).
        seen_arrays = [current]
        seen_scores = [current_scores]

        blocks = self._walker_blocks()
        metro_col = SearchSpace.DRAWS_PER_NEIGHBOR_ROUND * cfg.neighbor_rounds
        for t in range(cfg.walk_length):
            u = blocks[:, t, :]
            proposals = self.space.neighbor_batch(
                current,
                u[:, :metro_col],
                fallback_gen=self._fill_rng,
                assume_contained=True,
            )
            prop_scores = self._score(model, proposals)
            delta = prop_scores - current_scores
            if cfg.temperature > 0:
                # exp only where delta < 0: identical accept decisions, no
                # float overflow for large positive deltas.
                p_accept = np.exp(np.minimum(delta, 0.0) / cfg.temperature)
                accept = (delta >= 0) | (u[:, metro_col] < p_accept)
            else:
                accept = delta >= 0
            current = current.where(accept, proposals)
            current_scores = np.where(accept, prop_scores, current_scores)
            seen_arrays.append(proposals)
            seen_scores.append(prop_scores)

        all_configs = ConfigArray.concat(seen_arrays)
        all_scores = np.concatenate(seen_scores)
        # Deduplicate on the key matrix keeping each key's best score, then
        # rank best-first.  Identical key rows are identical configurations,
        # so any representative index per group works.  Each row is viewed
        # as one opaque 96-byte key: np.unique groups those far faster than
        # rows (axis=0), and the ranking below does not depend on the order
        # of the groups, only on their scores and first visits.
        keys = all_configs.key_matrix()
        row_keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        distinct, group = np.unique(row_keys, return_inverse=True)
        num_groups = distinct.size
        group_best = np.full(num_groups, -np.inf)
        np.maximum.at(group_best, group, all_scores)
        representative = np.zeros(num_groups, dtype=np.intp)
        representative[group] = np.arange(all_scores.size, dtype=np.intp)
        # Rank best-first; break score ties by first-visit order, like the
        # scalar explorer's insertion-ordered best_seen dict (tree-model
        # scores tie often, and lexicographic-key tie-breaking would bias the
        # batch towards one corner of the space).
        first_visit = np.full(num_groups, all_scores.size, dtype=np.intp)
        np.minimum.at(first_visit, group, np.arange(all_scores.size, dtype=np.intp))
        order = np.lexsort((first_visit, -group_best))

        num_random = int(round(cfg.epsilon * batch_size)) if batch_size > 1 else 0
        num_guided = batch_size - num_random

        batch: List[Configuration] = []
        for g in order:
            if len(batch) >= num_guided:
                break
            candidate = all_configs.config_at(representative[g])
            key = candidate.key()
            if key in visited:
                continue
            batch.append(candidate)
            visited.add(key)
        # One uniform-random fill covers both the reserved ε-greedy slots and
        # any guided slots the walks could not fill with unvisited candidates
        # (same combined attempt cap as the scalar explorer).
        attempts = 0
        while len(batch) < batch_size and attempts < 40 * batch_size:
            chunk = self.space.sample_batch(
                self._fill_rng, min(batch_size - len(batch), 40 * batch_size - attempts)
            )
            attempts += len(chunk)
            for i in range(len(chunk)):
                candidate = chunk.config_at(i)
                key = candidate.key()
                if key in visited or len(batch) >= batch_size:
                    continue
                batch.append(candidate)
                visited.add(key)
        return batch
