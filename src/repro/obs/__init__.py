"""Deterministic observability: metrics, spans, exporters, injected clocks.

Entry point is :class:`Observability`, a bundle of one metrics registry, one
span tracer and one clock:

    obs = Observability(enabled=True, clock=MonotonicClock())
    service = TuningService(database=db, obs=obs)
    ...
    print(summary(obs.registry.snapshot()))

The **disabled path is a true no-op**: ``Observability(enabled=False)`` and
the module-level :data:`NULL_OBS` hand out shared null instruments (null
registry, null tracer, null clock) whose methods do nothing and allocate
nothing, so instrumented hot paths cost one attribute load + one no-op call.

The **clock-injection contract** (REPRO601/REPRO701): instrumented code
never reads ``time.*`` directly — it calls ``obs.clock.now()``.  Code inside
``src/repro/core/``/``src/repro/gpusim/`` is only ever handed the null clock
or instruments bound to a registry, so determinism there is preserved by
construction; real clocks live at the edges (drivers, benchmarks, pools).

Observability never touches session RNG or database state: instruments are
write-only from the instrumented code's point of view, and nothing in this
package feeds values back into tuning decisions.  Bit-identity of tuning
trajectories with observability enabled vs. disabled is enforced by
``tests/test_observability.py``.
"""

from .clock import NULL_CLOCK, Clock, FakeClock, MonotonicClock, NullClock
from .export import (
    format_describe,
    metrics_jsonl,
    prometheus_text,
    spans_jsonl,
    summary,
)
from .metrics import (
    BATCH_SIZE_BOUNDS,
    FILL_RATIO_BOUNDS,
    GROUP_COUNT_BOUNDS,
    LATENCY_BOUNDS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    Scope,
)
from .trace import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "BATCH_SIZE_BOUNDS",
    "FILL_RATIO_BOUNDS",
    "GROUP_COUNT_BOUNDS",
    "LATENCY_BOUNDS",
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "format_describe",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MonotonicClock",
    "NullClock",
    "NullTracer",
    "Observability",
    "Scope",
    "Span",
    "SpanTracer",
    "NULL_CLOCK",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "metrics_jsonl",
    "prometheus_text",
    "spans_jsonl",
    "summary",
]


class Observability:
    """One registry + one tracer + one clock, enabled or null.

    * ``enabled=True`` builds a live :class:`MetricsRegistry` and a
      :class:`SpanTracer` on the given clock (default: :data:`NULL_CLOCK`,
      so even enabled observability is deterministic unless the caller
      explicitly injects a real clock at the edge).
    * ``enabled=False`` reuses the shared null registry/tracer/clock —
      constructing a disabled ``Observability`` allocates only the wrapper.

    Instances hold locks and deques and are deliberately **not picklable**;
    cross-process telemetry ships :meth:`MetricsRegistry.snapshot` wire
    dicts instead (see ``TuningWorkerPool``).
    """

    __slots__ = ("enabled", "clock", "registry", "tracer")

    def __init__(
        self,
        enabled: bool = True,
        clock: Clock = None,
        span_capacity: int = 1024,
    ) -> None:
        self.enabled = bool(enabled)
        if self.enabled:
            self.clock = clock if clock is not None else NULL_CLOCK
            self.registry = MetricsRegistry()
            self.tracer = SpanTracer(clock=self.clock, capacity=span_capacity)
        else:
            self.clock = NULL_CLOCK
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER

    def scope(self, prefix: str) -> Scope:
        return self.registry.scope(prefix)

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()


#: shared disabled instance — the default ``obs`` everywhere.
NULL_OBS = Observability(enabled=False)
