"""Seeded request streams for the four end-to-end workloads.

Everything a run sends is generated here from the workload seed; the daemon
only ever receives the generated requests.  The same seed gives the same
streams, and each stream draws from its own ``random.Random`` so adding a
draw to one cannot shift another.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator, List, Tuple

from repro.conv.tensor import ConvParams
from repro.gpusim import GTX_1080TI, V100
from repro.gpusim.spec import GPUSpec
from repro.nets.zoo import MODEL_ZOO
from repro.service import TuningRequest

WORKLOADS = ("cold", "pool_cold", "hot", "mixed")

GPUS = (V100, GTX_1080TI)
#: ``simulated_annealing`` is left out: its 128 one-config rounds outlast a
#: whole timed window at the round rate ATE retraining allows, so each one
#: would only park a slot.  ``sa_tempering`` is the batched annealer.
BASELINE_TUNERS = ("random", "genetic", "sa_tempering")
ATE_BUDGET = 32
#: the tuning runs beside the hot mix retrain on up to 64 samples, so each
#: scheduling round holds the daemon lock for a long retrain.
MIXED_ATE_BUDGET = 64
BASELINE_BUDGET = 128
HOT_BUDGET = 32
HOT_PROBLEMS = 12
#: share of hot-mix requests that exactly repeat a warm-up request (journal
#: re-serves); the rest carry a fresh seed and are served from the database.
HOT_REPEAT_SHARE = 0.6
#: fresh seeds start here, far above any seed drawn for a warm-up request,
#: so a fresh-seed request never collides with a journaled one.
FRESH_SEED_BASE = 1_000_000
#: the seed of the priming runs that fill the serving daemon's database.
PRIME_SEED = FRESH_SEED_BASE - 1

Triple = Tuple[ConvParams, GPUSpec, str]


def distinct_layers() -> List[ConvParams]:
    """The zoo's distinct convolution problems, in zoo order."""
    layers: List[ConvParams] = []
    for factory in MODEL_ZOO.values():
        for layer in factory().layers:
            params = layer.params()
            if params not in layers:
                layers.append(params)
    return layers


def problem_triples() -> List[Triple]:
    """Every (layer, GPU, algorithm) the workloads draw from: each layer on
    each GPU with the direct algorithm, plus Winograd for 3x3 stride-1."""
    triples: List[Triple] = []
    for params in distinct_layers():
        algorithms = ["direct"]
        if params.ker_height == params.ker_width == 3 and params.stride == 1:
            algorithms.append("winograd")
        for spec in GPUS:
            for algorithm in algorithms:
                triples.append((params, spec, algorithm))
    return triples


def cold_stream(seed: int) -> Iterator[TuningRequest]:
    """Fresh tuning runs, alternating a pruned ``ate`` request (each
    (layer, GPU, algorithm) at most once, so none is a database hit) with an
    unpruned baseline request (tuners in a fixed cycle, unique seeds).

    Finite: it ends when the pruned triples run out."""
    rng = random.Random(f"cold-{seed}")
    triples = problem_triples()
    order = list(triples)
    rng.shuffle(order)
    for i, (params, spec, algorithm) in enumerate(order):
        yield TuningRequest(
            params=params,
            spec=spec,
            algorithm=algorithm,
            max_measurements=ATE_BUDGET,
            seed=rng.randrange(FRESH_SEED_BASE),
            tuner="ate",
        )
        params, spec, algorithm = rng.choice(triples)
        yield TuningRequest(
            params=params,
            spec=spec,
            algorithm=algorithm,
            max_measurements=BASELINE_BUDGET,
            seed=FRESH_SEED_BASE + i,
            pruned=False,
            tuner=BASELINE_TUNERS[i % len(BASELINE_TUNERS)],
        )


def hot_problems(seed: int) -> List[TuningRequest]:
    """The warm-up set: pruned ``ate`` requests on distinct triples."""
    rng = random.Random(f"hot-problems-{seed}")
    chosen = rng.sample(problem_triples(), HOT_PROBLEMS)
    return [
        TuningRequest(
            params=params,
            spec=spec,
            algorithm=algorithm,
            max_measurements=HOT_BUDGET,
            seed=rng.randrange(PRIME_SEED),
            tuner="ate",
        )
        for params, spec, algorithm in chosen
    ]


def hot_primers(seed: int) -> List[TuningRequest]:
    """The hot problems under :data:`PRIME_SEED`: tuned once by the serving
    daemon so that its database holds a record for every hot problem."""
    return [dataclasses.replace(p, seed=PRIME_SEED) for p in hot_problems(seed)]


def hot_stream(seed: int) -> Iterator[TuningRequest]:
    """Endless hot mix over :func:`hot_problems`: an exact repeat with
    probability :data:`HOT_REPEAT_SHARE`, else the same problem with a fresh
    seed (a new request id the database answers)."""
    problems = hot_problems(seed)
    rng = random.Random(f"hot-stream-{seed}")
    i = 0
    while True:
        problem = problems[rng.randrange(len(problems))]
        if rng.random() < HOT_REPEAT_SHARE:
            yield problem
        else:
            yield dataclasses.replace(problem, seed=FRESH_SEED_BASE + i)
        i += 1


def mixed_cold_stream(seed: int) -> Iterator[TuningRequest]:
    """Endless fresh unpruned ``ate`` runs (never database-served).

    The problems cycle through one fixed order, so the tuning load beside
    the hot mix is the same for every seed; the seed picks tuning seeds."""
    triples = problem_triples()
    random.Random("mixed-cold").shuffle(triples)
    rng = random.Random(f"mixed-cold-{seed}")
    for i in itertools.count():
        params, spec, algorithm = triples[i % len(triples)]
        yield TuningRequest(
            params=params,
            spec=spec,
            algorithm=algorithm,
            max_measurements=MIXED_ATE_BUDGET,
            seed=FRESH_SEED_BASE + rng.randrange(FRESH_SEED_BASE),
            pruned=False,
            tuner="ate",
        )
