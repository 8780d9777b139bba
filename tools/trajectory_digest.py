"""Trajectory digest: one sha256 per tuning request over a fixed grid.

A change meant to keep behaviour (a refactor, a deletion) must leave every
search trajectory bit-identical.  This script prints a line per request of
the grid below with the sha256 of the canonical JSON of
``result_to_wire(request.tune_direct())``, then one line for a
``TuningService`` batch and one for a serial two-shard ``TuningWorkerPool``
batch of the same requests, each with its measurement count::

    make digest > change.txt
    PYTHONPATH=../parent/src python tools/trajectory_digest.py > parent.txt
    diff parent.txt change.txt

It imports ``repro`` from ``PYTHONPATH`` and uses only APIs that have been
stable for many releases, so it runs unchanged against an older checkout's
``src/``.  The grid (156 requests) is every engine tuner (``ate`` pruned,
``tvm_style`` unpruned) x both algorithms x ``initial_random`` 0/3/16 x
``patience`` 1/2/6 x batch size 5/8/16, plus the four baseline tuners x
both algorithms x pruned/unpruned x seeds 0-2, all on one small layer with
a budget of 24 measurements.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Iterable, List

from repro.conv import ConvParams
from repro.gpusim import V100
from repro.service import TuningRequest, TuningService, TuningWorkerPool, result_to_wire

LAYER = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
BUDGET = 24
BASELINES = ("random", "simulated_annealing", "sa_tempering", "genetic")


def grid() -> List[TuningRequest]:
    """The fixed request grid, in print order."""
    requests = [
        TuningRequest(
            LAYER,
            V100,
            algorithm=algorithm,
            max_measurements=BUDGET,
            batch_size=batch_size,
            initial_random=initial_random,
            patience=patience,
            seed=5,
            pruned=pruned,
            tuner=tuner,
        )
        for (tuner, pruned), algorithm, initial_random, patience, batch_size in itertools.product(
            (("ate", True), ("tvm_style", False)),
            ("direct", "winograd"),
            (0, 3, 16),
            (1, 2, 6),
            (5, 8, 16),
        )
    ]
    requests += [
        TuningRequest(
            LAYER,
            V100,
            algorithm=algorithm,
            max_measurements=BUDGET,
            seed=seed,
            pruned=pruned,
            tuner=tuner,
        )
        for tuner, algorithm, pruned, seed in itertools.product(
            BASELINES, ("direct", "winograd"), (True, False), (0, 1, 2)
        )
    ]
    return requests


def digest(results: Iterable) -> str:
    """sha256 over the canonical wire JSON of ``results``, one line each."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(result_to_wire(result), sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def label(request: TuningRequest) -> str:
    knobs = f"seed={request.seed}"
    if request.tuner in ("ate", "tvm_style"):
        knobs = (
            f"initial_random={request.initial_random} patience={request.patience} "
            f"batch={request.batch_size}"
        )
    return f"{request.tuner} {request.algorithm} pruned={int(request.pruned)} {knobs}"


def main() -> None:
    requests = grid()
    for request in requests:
        print(f"{digest([request.tune_direct()])} {label(request)}", flush=True)
    service = TuningService()
    results = service.tune(requests)
    print(f"{digest(results)} service batch measurements={service.stats.measurements}")
    pool = TuningWorkerPool(num_workers=2, use_processes=False)
    results = pool.tune(requests)
    print(f"{digest(results)} pool batch measurements={pool.stats.measurements}")


if __name__ == "__main__":
    main()
