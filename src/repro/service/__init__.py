"""Concurrent tuning service (the production front end of the auto-tuner).

Real deployments tune whole model zoos at once; this package schedules many
conv-tuning requests over the shared fast primitives so concurrent clients
never redundantly re-tune identical layers or under-fill measurement
batches:

* :class:`TuningRequest` / :class:`TuningFuture` — the submit/await API; a
  request pins down everything that determines a tuning outcome (search
  tuner and hyperparameters included), so equal requests are
  interchangeable.
* :class:`RequestCoalescer` — identical in-flight requests share one run.
* :class:`TuningService` — the scheduler: serves database hits at submit
  time, drives every active run's step-wise session (the ATE engine *and*
  every baseline tuner implement the same
  :class:`~repro.core.autotune.session.TuningSessionProtocol`), and packs
  proposal batches from different requests into shared executor calls
  (:meth:`~repro.gpusim.executor.GPUExecutor.run_batch_groups`).
* :class:`SchedulingPolicy` — which runs propose each round: uniform
  (default), budget-weighted fair share, earliest-deadline-first.
* :class:`TuningWorkerPool` — shards big workloads across long-lived worker
  processes that *stream* best-known records to each other mid-workload
  (parent folds each completed run's record into the shared database
  immediately and pushes it down every other shard's sync channel), with a
  deterministic serial fallback; a batch ``tune()`` is one serving session.
  It serves through the same ``submit`` / ``step`` / ``cancel`` / ``stop``
  contract as :class:`TuningService`, so either backs the daemon.
* :class:`TuningDaemon` / :class:`DaemonClient` — the always-on deployment
  shape: every accepted request is journaled durably (:class:`RequestJournal`)
  *before* acknowledgement, admission control answers overload with a typed
  ``RETRY_AFTER`` rejection, per-request timeouts cancel cleanly, and a
  SIGKILLed daemon recovers on restart — journaled-done results re-serve
  bit-identically with zero re-measurement, in-flight requests replay
  idempotently.  Served over a line-delimited JSON socket protocol
  (:class:`DaemonSocketServer`) or the deterministic in-process
  :class:`FakeTransport`.

Everything is bit-identical to driving each request's tuner directly
(:meth:`TuningRequest.tune_direct`) — the service only removes redundant and
per-call work, never changes the search.

**Mixed-algorithm submit** — one service schedules heterogeneous search
algorithms side by side, packing their measurement batches together::

    from repro.conv import ConvParams
    from repro.gpusim import V100
    from repro.service import TuningRequest, TuningService

    layer = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
    service = TuningService(policy="fair_share")   # or "uniform" / "edf"
    futures = [
        # the ATE engine on the pruned Table-1 domain (database-backed)
        service.submit(TuningRequest(layer, V100, max_measurements=96)),
        # baselines on the unpruned space, hyperparameters in the key
        service.submit(TuningRequest(layer, V100, pruned=False, tuner="random")),
        service.submit(
            TuningRequest(
                layer, V100, pruned=False, tuner="sa_tempering",
                tuner_params={"chains": 8},
            )
        ),
        # an urgent request: EDF schedules it ahead of everything else
        service.submit(
            TuningRequest(layer, V100, pruned=False, tuner="genetic", deadline=1.0)
        ),
    ]
    service.drain()                     # or run step() from a driver thread
    results = [f.result() for f in futures]
"""

from .coalescer import InFlightRun, RequestCoalescer
from .daemon import DaemonStats, TuningDaemon
from .daemonize import PidfileError, daemonize, serve_forever
from .errors import (
    BadRequest,
    DaemonDraining,
    DeadlineExpired,
    NotReady,
    Overloaded,
    RequestCancelled,
    RequestError,
    RequestFailed,
    RequestTimeout,
    UnknownRequest,
    error_from_wire,
)
from .frontend import (
    DaemonClient,
    DaemonSocketServer,
    FakeTransport,
    SocketTransport,
)
from .futures import TuningFuture
from .journal import (
    RequestJournal,
    request_from_wire,
    request_id,
    request_to_wire,
    result_from_wire,
    result_to_wire,
)
from .policy import (
    EarliestDeadlinePolicy,
    FairSharePolicy,
    SchedulingPolicy,
    UniformPolicy,
    make_policy,
)
from .pool import PoolStats, TuningWorkerPool
from .request import TUNERS, TuningRequest
from .scheduler import ServiceStats, TuningService

__all__ = [
    "BadRequest",
    "DaemonClient",
    "DaemonDraining",
    "DaemonSocketServer",
    "DaemonStats",
    "DeadlineExpired",
    "EarliestDeadlinePolicy",
    "FairSharePolicy",
    "FakeTransport",
    "InFlightRun",
    "NotReady",
    "Overloaded",
    "PidfileError",
    "PoolStats",
    "RequestCancelled",
    "RequestCoalescer",
    "RequestError",
    "RequestFailed",
    "RequestJournal",
    "RequestTimeout",
    "SchedulingPolicy",
    "ServiceStats",
    "SocketTransport",
    "TUNERS",
    "TuningDaemon",
    "TuningFuture",
    "TuningRequest",
    "TuningService",
    "TuningWorkerPool",
    "UniformPolicy",
    "UnknownRequest",
    "daemonize",
    "error_from_wire",
    "make_policy",
    "serve_forever",
    "request_from_wire",
    "request_id",
    "request_to_wire",
    "result_from_wire",
    "result_to_wire",
]
