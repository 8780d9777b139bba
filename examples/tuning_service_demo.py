#!/usr/bin/env python3
"""Concurrent tuning service demo: one model zoo, many concurrent clients.

Simulates a production tuning tier: several clients concurrently request
tuned configurations for the conv layers of a small model zoo.  The
:class:`~repro.service.TuningService`

* answers repeat layers from the shared tuning database (the default on-disk
  one: ``~/.cache/repro-tuning.json``, override with ``$REPRO_TUNING_DB``),
* coalesces identical in-flight requests so N clients asking for the same
  layer trigger exactly one search, and
* packs the measurement batches of the layers that do need tuning into
  shared batched-executor calls.

A second act demonstrates the **streaming worker pool**: a duplicate-heavy
workload sharded over worker processes.  The pool answers cross-shard
repeats from records the other shards just produced, so it runs fewer
searches than requests (its database hits);
``benchmarks/bench_tuning_service.py`` measures the saving against shards
tuned in isolation.

Run with:  python examples/tuning_service_demo.py
"""

import threading

from repro.analysis import render_rows
from repro.core.autotune import TuningDatabase
from repro.obs import format_describe
from repro.gpusim import V100
from repro.nets import get_model
from repro.service import TuningRequest, TuningService, TuningWorkerPool

BUDGET = 48
NUM_CLIENTS = 3
POOL_WORKERS = 4


def main() -> None:
    database = TuningDatabase.default()
    service = TuningService(database=database)

    # Each "client" asks for every conv layer of its model; resnet18 layers
    # repeat heavily and squeezenet shares nothing, so the workload mixes
    # coalescing, database serving and genuinely new searches.
    zoo = ["resnet18", "squeezenet", "resnet18"][:NUM_CLIENTS]
    futures: list = []

    def client(model_name: str) -> None:
        for layer in get_model(model_name).layers:
            request = TuningRequest(
                layer.params(), V100, "direct", max_measurements=BUDGET, seed=0
            )
            futures.append(service.submit(request))

    threads = [threading.Thread(target=client, args=(m,)) for m in zoo]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    service.drain()

    rows = [
        {
            "request": f.request.params.describe(),
            "source": (
                "coalesced" if f.coalesced else ("database" if f.from_database else "tuned")
            ),
            "best (us)": round(f.result().best_time * 1e6, 2),
        }
        for f in futures[:12]
    ]
    print(render_rows(["request", "source", "best (us)"], rows))
    print(f"... {len(futures)} requests total\n")
    print(format_describe(service.describe()))
    saved = database.save()
    print(f"Tuning database: {format_describe(database.describe())} -> {saved}")

    streaming_pool_demo()


def streaming_pool_demo() -> None:
    """Same problems, sharded over the streaming pool."""
    layers = [layer.params() for layer in get_model("squeezenet").layers[:POOL_WORKERS]]
    # Each layer requested under three seeds, rotated so a layer's variants
    # land in different shards: shard B's backlog repeats problems shard A
    # is tuning right now — exactly the redundancy streaming removes.
    workload = [
        TuningRequest(
            layers[(slot + row) % len(layers)], V100, "direct",
            max_measurements=BUDGET, seed=row + 1,
        )
        for row in range(3)
        for slot in range(len(layers))
    ]
    print(f"\nWorker pool, {len(workload)} requests over {POOL_WORKERS} shards:")
    pool = TuningWorkerPool(num_workers=POOL_WORKERS, admit_window=1)
    pool.tune(list(workload))
    print(f"  {pool.stats.describe()}")
    print(
        f"  {pool.stats.tuning_runs} searches for {len(workload)} requests "
        f"({pool.stats.database_hits} served from streamed records)"
    )


if __name__ == "__main__":
    main()
