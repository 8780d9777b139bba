"""Maximum vertex generation functions (Section 4.1.2).

For each sub-computation ``j`` of a multi-step partition the theory needs two
monotone functions of an integer budget ``k``:

* ``φ_j(k)`` — the maximum number of vertices of step ``j`` that can be
  generated from ``k`` available inputs (dominator vertices of the step plus
  values carried over from the previous step's outputs);
* ``ψ_j(k)`` — the maximum number of *step outputs* ``Õ_j`` generated from the
  same budget (these are the only values that feed step ``j+1``).

The paper derives closed forms for the steps of the direct convolution
(Lemmas 4.9–4.10) and of the Winograd algorithm (Lemmas 4.15–4.18); those
appear in :mod:`repro.core.bounds.direct_conv` and
:mod:`repro.core.bounds.winograd`.  This module defines the small value
objects shared by every bound:

* :class:`StepGeneration` — a named (φ, ψ) pair with optional metadata;
* :func:`empirical_generation` — a brute-force evaluation of φ/ψ on a small
  :class:`~repro.pebble.dag.ComputationDAG`, used by the tests to confirm
  that the closed-form lemmas really are upper bounds of the combinatorial
  quantities they claim to bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Set, Tuple

from ...pebble.dag import ComputationDAG

__all__ = ["StepGeneration", "empirical_generation"]

GenerationFn = Callable[[float], float]


@dataclass(frozen=True)
class StepGeneration:
    """The (φ_j, ψ_j) pair describing one sub-computation.

    Both callables must be non-decreasing and defined for every non-negative
    real budget (the composite optimiser relaxes the integer budgets to reals,
    which only loosens — never tightens — the resulting lower bound).
    """

    name: str
    phi: GenerationFn
    psi: GenerationFn
    description: str = ""

    def phi_at(self, k: float) -> float:
        if k < 0:
            raise ValueError("budget must be non-negative")
        return float(self.phi(k)) if k > 0 else 0.0

    def psi_at(self, k: float) -> float:
        if k < 0:
            raise ValueError("budget must be non-negative")
        return float(self.psi(k)) if k > 0 else 0.0


def _subsets_of_size(universe: Sequence[int], size: int) -> Iterable[Tuple[int, ...]]:
    return itertools.combinations(universe, size)


def empirical_generation(
    dag: ComputationDAG,
    step: int,
    budget: int,
    capacity: int,
    max_candidates: int = 200_000,
) -> Tuple[int, int]:
    """Brute-force the empirical (φ_j, ψ_j) on a small DAG.

    The returned pair is the maximum over candidate dominator sets ``D`` with
    ``|D ∩ U_j| + |Θ(D) ∩ Õ_{j-1}| <= budget`` (and ``|D| <= capacity``) of

    * the number of step-``j`` vertices generated by ``D`` and
    * the number of step-``j`` output vertices generated by ``D``.

    Candidate dominators are drawn from the step's *natural* input frontier
    (the union of step inputs and previous-step outputs), which is where any
    maximising dominator can be assumed to live for the tree-structured steps
    analysed in the paper.  The search enumerates subsets and is therefore
    only usable on tiny DAGs: when it would enumerate more than
    ``max_candidates`` subsets it raises ``ValueError`` instead, so it never
    returns the maximum over a part of the candidates.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    step_vertices = set(dag.vertices_of_step(step))
    if not step_vertices:
        return (0, 0)
    step_outputs = set(dag.step_outputs(step))

    # The frontier from which the dominator can generate step-j vertices:
    # predecessors of step-j vertices that live in earlier steps (or are
    # graph inputs), plus the step vertices themselves.
    frontier: Set[int] = set()
    for vid in step_vertices:
        for p in dag.predecessors(vid):
            if p not in step_vertices:
                frontier.add(p)
    frontier_list = sorted(frontier)

    best_phi = 0
    best_psi = 0
    size = min(budget, capacity, len(frontier_list))
    n_candidates = sum(math.comb(len(frontier_list), sz) for sz in range(1, size + 1))
    if n_candidates > max_candidates:
        raise ValueError(
            f"empirical_generation would enumerate {n_candidates} dominator "
            f"sets, over the max_candidates limit of {max_candidates}"
        )
    for sz in range(1, size + 1):
        for combo in _subsets_of_size(frontier_list, sz):
            dom = set(combo)
            generated = dag.generated_by(dom)
            gen_step = generated & step_vertices
            gen_out = generated & step_outputs
            best_phi = max(best_phi, len(gen_step))
            best_psi = max(best_psi, len(gen_out))
    return (best_phi, best_psi)
