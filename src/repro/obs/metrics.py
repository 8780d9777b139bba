"""Thread-safe metrics: counters, gauges, histograms, registry, snapshots.

Design constraints (see ROADMAP.md, "Observability layer"):

* **dependency-free** — stdlib only, importable everywhere including worker
  processes spawned with the ``spawn`` start method;
* **thread-safe per instrument** — each instrument carries its own small
  lock; the registry lock is only taken for get-or-create and snapshots, so
  hot-path increments never contend on a global lock;
* **snapshot/merge is the wire format** — a :class:`MetricsSnapshot` is a
  plain picklable/JSON-able value object; worker shards ship snapshots back
  in their result stream and the parent merges them into one fleet view.
  Merge is associative and commutative (counters add, gauges keep the max,
  histograms add element-wise), so merge order across shards cannot change
  the fleet totals;
* **null instruments are free** — :data:`NULL_COUNTER` & friends are shared
  module-level singletons whose methods do nothing; code paths instrumented
  against them allocate nothing and branch once.

Instrument names use dotted lowercase (``service.requests``,
``pool.stream.records``); exporters that need Prometheus-legal names
sanitise dots to underscores at export time, never at recording time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Scope",
    "BATCH_SIZE_BOUNDS",
    "FILL_RATIO_BOUNDS",
    "GROUP_COUNT_BOUNDS",
    "LATENCY_BOUNDS",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
]

# Canonical bucket boundaries shared by every layer that records the same
# quantity.  Snapshot merge requires identical bounds per histogram name, so
# instrumented code must take these constants instead of inventing its own —
# a worker shard and the parent disagreeing on bounds would make the fleet
# merge raise.
#: configurations per executor/measurer batch (powers of two, tuner-sized).
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: slices packed into one shared executor call.
GROUP_COUNT_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
#: packing benefit: configs in a packed call / largest single slice (>= 1).
FILL_RATIO_BOUNDS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
#: seconds, log-spaced from microseconds to a second (request latencies).
LATENCY_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


class Counter:
    """Monotonically increasing count. ``inc`` never accepts negatives."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-written level (queue depth, worker count). Merge keeps the max.

    ``max`` is the merge operator because it is the only associative,
    commutative choice that stays meaningful for point-in-time levels
    aggregated across shards: "deepest sync queue any shard ever saw".
    """

    __slots__ = ("name", "_lock", "_value", "_high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._high_water = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if value > self._high_water:
                self._high_water = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def high_water(self) -> float:
        with self._lock:
            return self._high_water


@dataclass
class HistogramData:
    """Picklable histogram payload: bounds + per-bucket counts + aggregates.

    ``counts`` has ``len(bounds) + 1`` entries: ``counts[i]`` holds values
    ``v <= bounds[i]`` (first bucket they fit), ``counts[-1]`` is overflow.
    """

    bounds: Tuple[float, ...]
    counts: List[int]
    total: int = 0
    sum: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def merged(self, other: "HistogramData") -> "HistogramData":
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        lo = min((m for m in (self.min, other.min) if m is not None), default=None)
        hi = max((m for m in (self.max, other.max) if m is not None), default=None)
        return HistogramData(
            bounds=self.bounds,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            total=self.total + other.total,
            sum=self.sum + other.sum,
            min=lo,
            max=hi,
        )

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class Histogram:
    """Fixed-boundary histogram. Bounds are set at creation and immutable.

    Bucketing: a value lands in the first bucket whose upper bound is
    ``>= value``; values above the last bound land in the overflow bucket.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_total", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r}: empty bounds")
        ordered = tuple(float(b) for b in bounds)
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram {name!r}: bounds must be strictly increasing: {ordered}")
        self.name = name
        self.bounds = ordered
        self._lock = threading.Lock()
        self._counts = [0] * (len(ordered) + 1)
        self._total = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            idx = len(self.bounds)  # overflow unless a bound admits it
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    idx = i
                    break
            self._counts[idx] += 1
            self._total += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def data(self) -> HistogramData:
        with self._lock:
            return HistogramData(
                bounds=self.bounds,
                counts=list(self._counts),
                total=self._total,
                sum=self._sum,
                min=self._min,
                max=self._max,
            )


class _NullCounter(Counter):
    """Shared do-nothing counter; ``inc`` is a constant-time no-op."""

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def __init__(self) -> None:
        super().__init__("null", (1.0,))

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


@dataclass
class MetricsSnapshot:
    """Immutable-by-convention point-in-time copy of a registry.

    Plain dict/list/tuple payload: picklable for multiprocessing queues and
    JSON-able (via :meth:`to_wire`) for telemetry files.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramData] = field(default_factory=dict)

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = dict(self.histograms)
        for name, data in other.histograms.items():
            histograms[name] = histograms[name].merged(data) if name in histograms else data
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def to_wire(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "bounds": list(data.bounds),
                    "counts": list(data.counts),
                    "total": data.total,
                    "sum": data.sum,
                    "min": data.min,
                    "max": data.max,
                }
                for name, data in self.histograms.items()
            },
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "MetricsSnapshot":
        histograms = {
            name: HistogramData(
                bounds=tuple(raw["bounds"]),
                counts=list(raw["counts"]),
                total=raw["total"],
                sum=raw["sum"],
                min=raw["min"],
                max=raw["max"],
            )
            for name, raw in wire.get("histograms", {}).items()
        }
        return cls(
            counters=dict(wire.get("counters", {})),
            gauges=dict(wire.get("gauges", {})),
            histograms=histograms,
        )


class MetricsRegistry:
    """Get-or-create instrument store with locked snapshots.

    The registry lock guards only the name->instrument maps; increments go
    through per-instrument locks, so snapshotting never blocks recording for
    longer than one instrument copy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                self._check_free(name, self._counters)
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                self._check_free(name, self._gauges)
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                self._check_free(name, self._histograms)
                inst = self._histograms[name] = Histogram(name, bounds)
            elif inst.bounds != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{inst.bounds}, requested {tuple(bounds)}"
                )
            return inst

    def _check_free(self, name, own_map):
        """Reject one name registered as two instrument types (lock held)."""
        for other in (self._counters, self._gauges, self._histograms):
            if other is not own_map and name in other:
                raise ValueError(f"metric name {name!r} already registered as another type")

    def scope(self, prefix: str) -> "Scope":
        return Scope(self, prefix)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return MetricsSnapshot(
            counters={c.name: c.value for c in counters},
            gauges={g.name: g.high_water for g in gauges},
            histograms={h.name: h.data() for h in histograms},
        )


class Scope:
    """Name-prefixing view over a registry: ``scope('db').counter('hits')``
    registers ``db.hits``. Scopes nest (``scope('a').scope('b')`` -> ``a.b.``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._name(name))

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._registry.histogram(self._name(name), bounds)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self._registry, self._name(prefix))


class _NullRegistry(MetricsRegistry):
    """Registry whose instruments are the shared null singletons.

    Every ``counter``/``gauge``/``histogram`` call returns the same null
    instrument — nothing is stored, nothing allocates after import, and
    ``snapshot()`` is always empty.
    """

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


NULL_REGISTRY = _NullRegistry()
