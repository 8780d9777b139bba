"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
from itertools import islice

import pytest

import run
import workloads
from repro.obs import MonotonicClock
from repro.service import request_id
from spans import LAYERS, layer_table


def _first(stream, n=40):
    return [request_id(r) for r in islice(stream, n)]


@pytest.mark.parametrize(
    "factory", [workloads.cold_stream, workloads.hot_stream, workloads.mixed_cold_stream]
)
def test_streams_are_deterministic_per_seed(factory):
    assert _first(factory(0)) == _first(factory(0))
    assert _first(factory(0)) != _first(factory(1))


def test_cold_rids_and_pruned_triples_are_unique():
    requests = list(workloads.cold_stream(3))
    rids = [request_id(r) for r in requests]
    assert len(set(rids)) == len(rids)
    pruned = [(r.params, r.spec, r.algorithm) for r in requests if r.pruned]
    assert len(pruned) == len(set(pruned)) == len(workloads.problem_triples())
    assert all(r.tuner == "ate" for r in requests if r.pruned)
    assert {r.tuner for r in requests if not r.pruned} == set(workloads.BASELINE_TUNERS)


def test_hot_stream_repeats_warm_up_or_uses_fresh_seeds():
    problems = {request_id(r) for r in workloads.hot_problems(2)}
    assert len(problems) == workloads.HOT_PROBLEMS
    stream = list(islice(workloads.hot_stream(2), 2000))
    repeats = sum(1 for r in stream if request_id(r) in problems)
    assert 0.55 < repeats / len(stream) < 0.65
    fresh = [request_id(r) for r in stream if request_id(r) not in problems]
    assert len(set(fresh)) == len(fresh)


def _span(span_id, name, start, end, parent=None):
    return {"span_id": span_id, "parent_id": parent, "name": name, "start": start, "end": end}


def test_self_time_and_shares_on_nested_multi_thread_spans():
    spans = [
        # connection thread: handle [0, 10] > append [1, 4], submit [5, 9] > lookup [6, 8]
        _span(1, "daemon.handle", 0.0, 10.0),
        _span(2, "journal.append", 1.0, 4.0, parent=1),
        _span(3, "scheduler.submit", 5.0, 9.0, parent=1),
        _span(4, "database.lookup", 6.0, 8.0, parent=3),
        # pump thread, overlapping in time: tick [2, 7] > step [3, 4]
        _span(5, "daemon.tick", 2.0, 7.0),
        _span(6, "scheduler.step", 3.0, 4.0, parent=5),
        # a tree whose root started outside the window is ignored whole
        _span(7, "daemon.tick", 20.0, 30.0),
        _span(8, "scheduler.step", 21.0, 29.0, parent=7),
    ]
    table = layer_table(spans, (0.0, 15.0), transport_calls=1, transport_seconds=11.0)
    assert set(table) == set(LAYERS)
    self_s = {name: row["self_s"] for name, row in table.items() if row["calls"]}
    assert self_s == {
        "daemon.handle": 3.0,
        "journal.append": 3.0,
        "scheduler.submit": 2.0,
        "database.lookup": 2.0,
        "daemon.tick": 4.0,
        "scheduler.step": 1.0,
        "frontend.transport": 1.0,  # the 11 s call minus the 10 s handle
    }
    assert table["daemon.tick"]["calls"] == 1
    assert table["scheduler.step"]["share"] == pytest.approx(1.0 / 16.0)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)


def _bench_file(path, values):
    runs = [
        {"workloads": [{
            "workload": "hot", "traced": False,
            "metrics": {"requests_per_s": v, "latency_p50_ms": 10.0, "setup_s": 0.5},
        }]}
        for v in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_flags_regressions_and_claims(tmp_path, capsys):
    parent = _bench_file(tmp_path / "parent.json", [100.0 + i for i in range(10)])
    slower = _bench_file(tmp_path / "slower.json", [50.0 + i for i in range(10)])
    faster = _bench_file(tmp_path / "faster.json", [200.0 + i for i in range(10)])
    assert run.main(["compare", parent, slower]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert run.main(["compare", parent, faster]) == 0
    assert "gain claimed" in capsys.readouterr().out


def _last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_all_workloads_over_the_socket(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BENCH_DIR", str(tmp_path))
    clock = MonotonicClock()
    start = clock.now()
    assert run.main(["--seed", "0", "--seconds", "1", "--trace", "1"]) == 0
    assert clock.now() - start < 60.0
    result = _last_json_line(capsys)
    assert result["correct"] and result["failed"] == 0
    for name in workloads.WORKLOADS:
        assert f"{name}.traced.layer.daemon.tick.calls" in result["metrics"]
        assert (tmp_path / f"TRACE_e2e_{name}.jsonl").exists()


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BENCH_DIR", str(tmp_path))
    argv = ["--workload", "hot", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 0
    result = _last_json_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(json.loads((tmp_path / "BENCH_e2e.json").read_text())["runs"]) == 1
