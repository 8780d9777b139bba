"""Observability layer — no-op guarantee, bit-identity, snapshot algebra.

The contracts under test, in the order the module docstrings state them:

* **Instrument semantics** — counters are monotonic, gauges track a
  high-water mark, histograms bucket ``v <= bound`` first-fit with an
  overflow bucket, and every edge value lands deterministically.
* **Snapshot algebra** — :meth:`MetricsSnapshot.merged` is associative and
  commutative (fleet totals are independent of shard report order) and
  survives a wire round-trip.
* **True no-op when disabled** — the null instruments are shared singletons
  whose methods record nothing, so the disabled path costs one attribute
  load + one no-op call and never allocates.
* **Bit-identity** — tuning with observability enabled (even on a ticking
  fake clock) yields byte-for-byte the trajectories of the disabled run and
  of ``tune_direct()``; observability is write-only with respect to session
  RNG and database state.
* **Cross-process telemetry** — worker shards ship metric snapshots back in
  their result streams; the parent's merged fleet view equals the in-process
  totals of the identical serial run.
"""

from __future__ import annotations

import json

import pytest

from repro.conv import ConvParams
from repro.gpusim import V100
from repro.obs import (
    FILL_RATIO_BOUNDS,
    NULL_CLOCK,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    Counter,
    FakeClock,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
    SpanTracer,
    metrics_jsonl,
    prometheus_text,
    spans_jsonl,
    summary,
)
from repro.service import TuningRequest, TuningService, TuningWorkerPool

A = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
B = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)

BUDGET = 24


def _request(params=A, seed=1, **kw):
    return TuningRequest(
        params, V100, algorithm="direct", max_measurements=BUDGET, seed=seed, **kw
    )


def _trajectory(result):
    return [(t.config.key(), t.time_seconds) for t in result.trials]


def _workload():
    # Duplicates + two problems: exercises coalescing, database serving and
    # multi-session rounds in one small workload.
    return [_request(A, seed=1), _request(B, seed=1), _request(A, seed=1),
            _request(A, seed=2)]


# --------------------------------------------------------------------------- #
class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_high_water(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
        assert g.high_water == 3

    def test_histogram_bucket_edges(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        # Exactly-on-bound lands in that bucket (v <= bound, first fit);
        # above the last bound lands in overflow.
        for v in (0.5, 1.0, 1.0000001, 2.0, 4.0, 4.0000001, 100.0):
            h.observe(v)
        data = h.data()
        assert data.counts == [2, 2, 1, 2]
        assert data.total == 7
        assert data.min == 0.5
        assert data.max == 100.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_registry_name_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))
        # Get-or-create: same name + same shape returns the same instrument.
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", bounds=(1.0, 2.0)) is reg.histogram(
            "h", bounds=(1.0, 2.0)
        )

    def test_scope_prefixes_nest(self):
        reg = MetricsRegistry()
        reg.scope("svc").scope("db").counter("hits").inc()
        assert reg.snapshot().counters == {"svc.db.hits": 1}


# --------------------------------------------------------------------------- #
class TestSnapshotAlgebra:
    @staticmethod
    def _snap(n):
        reg = MetricsRegistry()
        reg.counter("c").inc(n)
        reg.gauge("g").set(n)
        h = reg.histogram("h", bounds=(1.0, 4.0))
        h.observe(float(n))
        return reg.snapshot()

    def test_merge_associative_and_commutative(self):
        a, b, c = self._snap(1), self._snap(3), self._snap(5)
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert left.to_wire() == right.to_wire()
        assert a.merged(b).to_wire() == b.merged(a).to_wire()
        assert left.counters["c"] == 9
        assert left.gauges["g"] == 5  # merged gauges keep the max high-water
        assert left.histograms["h"].total == 3

    def test_wire_round_trip(self):
        snap = self._snap(2).merged(self._snap(7))
        wire = snap.to_wire()
        json.dumps(wire)  # wire form must be plain-JSON shippable
        assert MetricsSnapshot.from_wire(wire).to_wire() == wire

    def test_merge_rejects_mismatched_bounds(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        r2.histogram("h", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ValueError):
            r1.snapshot().merged(r2.snapshot())


# --------------------------------------------------------------------------- #
class TestNullPath:
    def test_disabled_obs_shares_null_singletons(self):
        obs = Observability(enabled=False)
        assert obs.registry is NULL_REGISTRY
        assert obs.tracer is NULL_TRACER
        assert obs.clock is NULL_CLOCK
        assert obs.registry is NULL_OBS.registry

    def test_null_instruments_record_nothing(self):
        reg = NULL_OBS.registry
        assert reg.counter("anything") is NULL_COUNTER
        assert reg.gauge("anything") is NULL_GAUGE
        assert reg.histogram("anything", bounds=(1.0,)) is NULL_HISTOGRAM
        NULL_COUNTER.inc(10)
        NULL_GAUGE.set(10)
        NULL_HISTOGRAM.observe(10)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.high_water == 0
        assert NULL_HISTOGRAM.data().total == 0
        assert NULL_OBS.snapshot().to_wire() == MetricsSnapshot().to_wire()

    def test_null_tracer_span_is_reusable_noop(self):
        with NULL_TRACER.span("a", k=1) as s1:
            with NULL_TRACER.span("b") as s2:
                assert s1 is s2  # one shared no-op context, zero allocation
        assert NULL_TRACER.finished() == []
        assert NULL_CLOCK.now() == 0.0


# --------------------------------------------------------------------------- #
class TestTracer:
    def test_parent_links_and_attrs(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer", shard=2):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.5)
        inner, outer = tracer.finished()
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"shard": 2}
        assert outer.duration == pytest.approx(1.5)
        assert inner.duration == pytest.approx(0.5)

    def test_ring_buffer_bounds_retention(self):
        tracer = SpanTracer(capacity=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        kept = [s.name for s in tracer.finished()]
        assert kept == ["s3", "s4"]
        assert tracer.dropped == 3

    def test_fake_clock_advance(self):
        clock = FakeClock(start=10.0)
        clock.advance(2.5)
        assert clock.now() == 12.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


# --------------------------------------------------------------------------- #
class TestExporters:
    @staticmethod
    def _snapshot():
        reg = MetricsRegistry()
        reg.counter("svc.requests").inc(4)
        reg.gauge("pool.depth").set(2)
        reg.histogram("svc.fill", bounds=(1.0, 2.0)).observe(1.5)
        return reg.snapshot()

    def test_jsonl_is_parseable(self):
        lines = metrics_jsonl(self._snapshot()).splitlines()
        rows = [json.loads(line) for line in lines]
        assert {r["name"] for r in rows} == {"svc.requests", "pool.depth", "svc.fill"}

    def test_prometheus_text_shape(self):
        text = prometheus_text(self._snapshot())
        assert "svc_requests 4" in text
        assert 'svc_fill_bucket{le="+Inf"} 1' in text
        assert "# TYPE svc_fill histogram" in text

    def test_summary_table(self):
        text = summary(self._snapshot())
        assert "svc.requests" in text
        assert summary(MetricsSnapshot()) == "(no metrics recorded)\n"

    def test_spans_jsonl(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("step", round=1):
            pass
        rows = [json.loads(line) for line in spans_jsonl(tracer.finished()).splitlines()]
        assert rows[0]["name"] == "step"
        assert rows[0]["attrs"] == {"round": 1}


# --------------------------------------------------------------------------- #
class TestBitIdentity:
    """Observability must never perturb tuning trajectories."""

    def test_service_enabled_vs_disabled(self):
        requests = _workload()
        plain = TuningService()
        plain_results = plain.tune(list(requests))

        obs = Observability(enabled=True, clock=FakeClock())
        observed = TuningService(obs=obs)
        observed_results = observed.tune(list(requests))

        for request, want, got in zip(requests, plain_results, observed_results):
            assert _trajectory(got) == _trajectory(want)
            assert got.best_config == want.best_config
            assert got.best_time == want.best_time
            if not got.from_cache:
                assert _trajectory(got) == _trajectory(request.tune_direct())
        assert observed.stats == plain.stats
        # ... and the instruments actually recorded the request path.
        snap = obs.snapshot()
        fill = snap.histograms["service.pack.fill_ratio"]
        assert fill.total > 0
        assert fill.bounds == FILL_RATIO_BOUNDS
        assert snap.counters["db.puts_total"] > 0

    def test_streaming_pool_enabled_vs_disabled(self):
        requests = _workload()
        plain = TuningWorkerPool(num_workers=2, use_processes=False)
        plain_results = plain.tune(list(requests))

        obs = Observability(enabled=True, clock=FakeClock())
        observed = TuningWorkerPool(num_workers=2, use_processes=False, obs=obs)
        observed_results = observed.tune(list(requests))

        for want, got in zip(plain_results, observed_results):
            assert _trajectory(got) == _trajectory(want)
            assert got.best_time == want.best_time
        assert observed.stats == plain.stats

    def test_enabled_obs_never_mutates_trajectories_across_reruns(self):
        # Two enabled runs on fresh services are byte-identical too: no
        # hidden global state accumulates inside the obs layer.
        requests = _workload()
        first = TuningService(obs=Observability()).tune(list(requests))
        second = TuningService(obs=Observability()).tune(list(requests))
        assert [_trajectory(r) for r in first] == [_trajectory(r) for r in second]


# --------------------------------------------------------------------------- #
class TestFleetTelemetry:
    def test_serial_fleet_snapshot_equals_service_totals(self):
        requests = _workload()
        obs = Observability()
        pool = TuningWorkerPool(num_workers=2, use_processes=False, obs=obs)
        pool.tune(list(requests))
        fleet = pool.fleet_snapshot().counters
        stats = pool.stats
        assert fleet["pool.requests"] == len(requests)
        assert fleet["service.tuning_runs"] == stats.tuning_runs
        assert fleet["service.measurements"] == stats.measurements
        assert fleet["service.database_hits"] == stats.database_hits

    def test_process_fleet_merge_equals_in_process_totals(self):
        # Worker processes ship their snapshots over the result stream; the
        # parent's merged fleet view must land on the totals the identical
        # serial run accumulates in-process.  (Only the deterministic
        # counters compare — latency histograms are wall-clock readings,
        # worker lifecycle counters exist only where there are workers, and
        # how many cross-shard records a worker injects depends on when they
        # reach its sync queue before it stops.)  Each shard starts with its
        # whole share in both modes, so rounds and executor calls match.
        requests = [_request(A, seed=1), _request(B, seed=1),
                    _request(A, seed=2), _request(B, seed=2)]

        serial = TuningWorkerPool(
            num_workers=2, use_processes=False, obs=Observability()
        )
        serial_results = serial.tune(list(requests))

        procs = TuningWorkerPool(num_workers=2, use_processes=True, obs=Observability())
        try:
            proc_results = procs.tune(list(requests))
        except (OSError, PermissionError, ImportError):
            pytest.skip("worker processes unavailable in this environment")
        if not procs.used_processes:
            pytest.skip("worker processes unavailable in this environment")

        for want, got in zip(serial_results, proc_results):
            assert _trajectory(got) == _trajectory(want)

        serial_counters = serial.fleet_snapshot().counters
        proc_counters = procs.fleet_snapshot().counters
        timed = {"service.records_injected", "service.records_applied"}
        service_keys = {
            k
            for k in serial_counters
            if k.startswith(("service.", "pool."))
            and not k.startswith("pool.workers.")
            and k not in timed
        }
        assert {"service.rounds", "service.executor_calls"} <= service_keys
        for key in sorted(service_keys):
            assert proc_counters.get(key) == serial_counters[key], key

    def test_disabled_pool_fleet_snapshot_still_accounts(self):
        # Without obs the fleet view degrades to pure pool+service
        # accounting — never an error, never missing counters.
        pool = TuningWorkerPool(num_workers=2, use_processes=False)
        pool.tune(_workload())
        counters = pool.fleet_snapshot().counters
        assert counters["pool.requests"] == 4
        assert counters["service.tuning_runs"] == pool.stats.tuning_runs
