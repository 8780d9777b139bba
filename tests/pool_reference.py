"""The no-exchange reference for :class:`repro.service.TuningWorkerPool`.

Each shard of a pool's own placement is tuned by an isolated
:class:`~repro.service.TuningService`, as if no record ever crossed shards:
what the pool's workload costs without its cross-shard record exchange.
The pool tests and ``benchmarks/bench_tuning_service.py`` compare against
it.
"""

from __future__ import annotations

from repro.service import ServiceStats, TuningService


def isolated_shards(pool, requests):
    """Tune ``requests`` on ``pool``'s placement with no exchange.

    Returns the results in request order and a :class:`ServiceStats`
    holding the shards' summed ``measurements`` and ``tuning_runs``.
    """
    num_shards, placement = pool._shard(requests)
    services = [TuningService() for _ in range(num_shards)]
    futures = [services[shard].submit(r) for r, shard in zip(requests, placement)]
    for service in services:
        service.drain()
    stats = ServiceStats(
        measurements=sum(s.stats.measurements for s in services),
        tuning_runs=sum(s.stats.tuning_runs for s in services),
    )
    return [future.result() for future in futures], stats
