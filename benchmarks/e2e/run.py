#!/usr/bin/env python3
"""End-to-end benchmark: seeded workloads through the tuning daemon's socket.

Each workload starts the daemon in a child process and drives it from one
single-threaded generator over ``DaemonClient(SocketTransport)``.
An untraced run (the stock daemon CLI) gives the end-to-end metrics; a
traced run (``traced_server.py``) gives the per-layer breakdown.

    python benchmarks/e2e/run.py --seed 0                  # every workload, both runs
    python benchmarks/e2e/run.py --workload hot --seed 3 --trace 0
    python benchmarks/e2e/run.py compare PARENT.json CHANGE.json

Every run appends its numbers to ``$BENCH_DIR/BENCH_e2e.json`` (default: the
current directory); ``compare`` reads two such files.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

E2E_DIR = Path(__file__).resolve().parent
REPO_DIR = E2E_DIR.parents[1]
if not (REPO_DIR / "src" / "repro").is_dir():
    # Benchmark this checkout's code, never an installed copy.
    sys.exit(f"no src/repro under {REPO_DIR}: run from a full checkout")
sys.path.insert(0, str(REPO_DIR / "src"))

from repro.obs import MonotonicClock  # noqa: E402
from repro.service import DaemonClient, SocketTransport, result_to_wire  # noqa: E402

import workloads  # noqa: E402
from harness import Daemon, Load, Outcome, TimedTransport, drive  # noqa: E402
from spans import LAYERS, layer_table, read_trace  # noqa: E402

DEFAULT_SECONDS = 15
#: hot-class latency limit for ``slo_met_share`` (seconds).
SLO_S = 0.05
#: freshly tuned results re-run through ``tune_direct()`` per workload.
CHECK_SAMPLE = 10
#: the tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: workload -> daemon backend options.
SETUPS = {
    "cold": {"backend": "service", "workers": 0},
    "pool_cold": {"backend": "pool", "workers": 2},
    "hot": {"backend": "service", "workers": 0},
    "mixed": {"backend": "service", "workers": 0},
}
#: workload -> request class -> (stream factory, K, period): K requests kept
#: outstanding, or with a period, one request sent every period seconds.
LOADS = {
    "cold": {"cold": (workloads.cold_stream, 8, 0.0)},
    "pool_cold": {"cold": (workloads.cold_stream, 8, 0.0)},
    "hot": {"hot": (workloads.hot_stream, 8, 0.0)},
    # Tuning arrives at a fixed rate rather than always in flight: two runs
    # always in flight keep the scheduling thread busy nearly all the time,
    # and the hot class then lives on the gaps between rounds, which made
    # its throughput vary 2.5x between runs of the same code.
    "mixed": {
        "hot": (workloads.hot_stream, 4, 0.0),
        "cold": (workloads.mixed_cold_stream, 0, 3.0),
    },
}

#: name -> (unit, better).  ``END_TO_END`` are gated by BENCHMARK.json bounds;
#: see the README for why each diagnostic is not.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "requests_per_s": ("req/s", "higher"),
}
DIAGNOSTICS = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "trials_per_s": ("trials/s", "higher"),
    "slo_met_share": ("fraction", "higher"),
    "error_rate": ("fraction", "lower"),
    "trace_overhead": ("fraction", "lower"),
}
COUNTS = {
    "count.service.measurements": ("count", "higher"),
    "count.service.executor_calls": ("count", "higher"),
    "ratio.scheduler.pack_fill": ("ratio", "higher"),
    "ratio.database.hit_share": ("fraction", "higher"),
    "count.daemon.rejected": ("count", "lower"),
}
PER_LAYER = {
    **{
        f"layer.{layer}.{field}": (unit, better)
        for layer in LAYERS
        for field, unit, better in (
            ("calls", "count", "higher"),
            ("self_s", "s", "lower"),
            ("share", "fraction", "lower"),
        )
    },
    **COUNTS,
}
UNITS = {**END_TO_END, **DIAGNOSTICS, **PER_LAYER}


class CheckFailed(Exception):
    """A correctness check of the run failed."""


# -- metric arithmetic --------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; raises ``ValueError`` unless at
    least :data:`TAIL_MIN_BEYOND` samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {TAIL_MIN_BEYOND}"
        )
    return ordered[rank - 1]


def _stats(describe: dict) -> Dict[str, int]:
    """The backend counters a window's delta is taken over."""
    daemon = describe["stats"]
    counts = {
        "rejected": daemon["rejected_overload"]
        + daemon["rejected_deadline"]
        + daemon["rejected_draining"],
    }
    if "pool" in describe:
        # Shard counters reach the parent only when the workers exit, so
        # only the parent-side ones move during a window.
        pool = describe["pool"]["stats"]
        counts.update(
            requests=pool["requests"],
            database_hits=pool["pre_served"],
            measurements=pool["measurements"],
            executor_calls=0,
            packed_configs=0,
            coalesced=0,
            tuning_runs=0,
        )
    else:
        service = describe["service"]["stats"]
        counts.update(
            {key: service[key] for key in (
                "requests", "database_hits", "measurements", "executor_calls",
                "packed_configs", "coalesced", "tuning_runs",
            )}
        )
    return counts


def window_counts(before: dict, after: dict) -> Dict[str, int]:
    b, a = _stats(before), _stats(after)
    return {key: a[key] - b[key] for key in a}


def count_metrics(delta: Dict[str, int]) -> Dict[str, float]:
    calls = delta["executor_calls"]
    return {
        "count.service.measurements": delta["measurements"],
        "count.service.executor_calls": calls,
        "ratio.scheduler.pack_fill": delta["packed_configs"] / calls if calls else 0.0,
        "ratio.database.hit_share": (
            delta["database_hits"] / delta["requests"] if delta["requests"] else 0.0
        ),
        "count.daemon.rejected": delta["rejected"],
    }


def outcome_metrics(
    name: str, outcomes: List[Outcome], window_s: float, mismatches: int
) -> Dict[str, Optional[float]]:
    primary = "hot" if name in ("hot", "mixed") else "cold"
    mine = [o for o in outcomes if o.cls == primary]
    ok = [o.latency_s for o in mine if o.error is None]
    if not ok:
        raise CheckFailed(f"{name}: no {primary} request finished in the window")
    metrics: Dict[str, Optional[float]] = {
        "requests_per_s": len(ok) / window_s,
        "latency_p50_ms": statistics.median(ok) * 1000.0,
    }
    try:
        metrics["latency_p90_ms"] = percentile(ok, 90) * 1000.0
    except ValueError:
        metrics["latency_p90_ms"] = None
    tuned = [o for o in outcomes if o.cls == "cold" and o.error is None]
    if tuned:
        metrics["trials_per_s"] = sum(len(o.result.trials) for o in tuned) / window_s
    if primary == "hot":
        met = sum(1 for latency in ok if latency <= SLO_S)
        metrics["slo_met_share"] = met / len(mine)
    failed = sum(1 for o in outcomes if o.error is not None)
    metrics["error_rate"] = (failed + mismatches) / len(outcomes)
    return metrics


# -- correctness --------------------------------------------------------- #
def check_results(
    name: str,
    seed: int,
    outcomes: List[Outcome],
    warm: List[Outcome],
    delta: Dict[str, int],
) -> List[str]:
    """Every correctness check of one run; returns the mismatches found."""
    problems: List[str] = []
    fresh = [o for o in outcomes + warm if o.cls != "hot" and o.error is None]
    sample = random.Random(f"check-{seed}").sample(fresh, min(CHECK_SAMPLE, len(fresh)))
    for outcome in sample:
        if result_to_wire(outcome.result) != result_to_wire(outcome.request.tune_direct()):
            problems.append(f"{outcome.rid}: differs from tune_direct()")
    for outcome in outcomes:
        if outcome.cls == "cold" and outcome.error is None and outcome.result.from_cache:
            problems.append(f"{outcome.rid}: a fresh request was served from cache")
    if name in ("cold", "pool_cold"):
        if delta["database_hits"] or delta["coalesced"]:
            problems.append(f"cold window saw database hits or coalescing: {delta}")
    if name in ("hot", "mixed"):
        first = {o.rid: result_to_wire(o.result) for o in warm if o.cls == "warm"}
        best = {_problem(o.request): o.result.best_trial for o in warm if o.cls == "prime"}
        for outcome in outcomes:
            if outcome.cls != "hot" or outcome.error is not None:
                continue
            if outcome.rid in first:
                if result_to_wire(outcome.result) != first[outcome.rid]:
                    problems.append(f"{outcome.rid}: journal re-serve differs")
                continue
            trials = outcome.result.trials
            expected = best[_problem(outcome.request)]
            if not (
                outcome.result.from_cache
                and len(trials) == 1
                and (trials[0].config, trials[0].time_seconds)
                == (expected.config, expected.time_seconds)
            ):
                problems.append(f"{outcome.rid}: database answer is not the priming best")
    if name == "hot" and delta["tuning_runs"]:
        problems.append(f"hot window ran {delta['tuning_runs']} tuning runs")
    return problems


def _problem(request) -> tuple:
    return (request.params, request.spec, request.algorithm)


# -- one workload run ---------------------------------------------------- #
def run_workload(
    name: str, seed: int, seconds: float, traced: bool, bench_dir: Path
) -> dict:
    """One complete run: warm start, set-up timing, the timed window,
    correctness checks, and (traced) the layer table.

    ``hot`` and ``mixed`` tune the hot problems on the warm start, so the
    timed daemon restarts on their journal and re-serves them from it; it
    then tunes the same problems once more under the priming seed, so its
    database answers every fresh-seed request.  (The priming is needed
    because ``--database`` does not reload the file on restart.)"""
    clock = MonotonicClock()
    options = SETUPS[name]
    hot_like = name in ("hot", "mixed")
    bench_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"e2e-{name}-", dir=bench_dir) as tmp:
        workdir = Path(tmp)
        warm: List[Outcome] = []
        with Daemon(workdir, clock, **options) as daemon:
            if hot_like:
                warm += _tune_all(daemon, "warm", workloads.hot_problems(seed), clock)
        setups = []
        if not traced:
            for _ in range(2):
                with Daemon(workdir, clock, **options) as daemon:
                    setups.append(daemon.setup_s)
        trace_path = bench_dir / f"TRACE_e2e_{name}.jsonl" if traced else None
        with Daemon(workdir, clock, trace_out=trace_path, **options) as daemon:
            setups.append(daemon.setup_s)
            transport = TimedTransport(SocketTransport(daemon.socket), clock)
            client = DaemonClient(transport, poll_attempts=1)
            if hot_like:
                warm += _tune_all(daemon, "prime", workloads.hot_primers(seed), clock)
            loads = {
                cls: Load(factory(seed), k, period)
                for cls, (factory, k, period) in LOADS[name].items()
            }
            before = client.describe()
            report = drive(client, loads, seconds, clock, transport)
            after = client.describe()
            delta = window_counts(before, after)
            # Untimed, and overlapping the work still in flight.
            mismatches = check_results(name, seed, report.outcomes, warm, delta)
    window_s = report.end - report.start
    metrics = outcome_metrics(name, report.outcomes, window_s, len(mismatches))
    run = {
        "workload": name,
        "traced": traced,
        "seed": seed,
        "window_s": window_s,
        "attempted": len(report.outcomes),
        "failed": sum(1 for o in report.outcomes if o.error is not None),
        "mismatches": mismatches,
        "metrics": metrics,
        "counts": count_metrics(delta),
    }
    if not traced:
        metrics["setup_s"] = statistics.median(setups)
        return run
    header, spans = read_trace(str(trace_path))
    if header["dropped"]:
        raise CheckFailed(f"{name}: the tracer dropped {header['dropped']} spans")
    table = layer_table(
        spans, (report.start, report.end), transport.calls, transport.seconds
    )
    total = sum(row["share"] for row in table.values())
    if abs(total - 1.0) > 1e-9:
        raise CheckFailed(f"{name}: layer shares sum to {total}, not 1")
    run["layers"] = table
    return run


def _tune_all(daemon: Daemon, cls: str, requests, clock) -> List[Outcome]:
    """Tune ``requests`` concurrently, untimed; each must succeed."""
    client = DaemonClient(SocketTransport(daemon.socket), poll_attempts=1)
    report = drive(client, {cls: Load(iter(requests), len(requests))}, 600.0, clock)
    failed = [o for o in report.outcomes if o.error is not None]
    if failed or len(report.outcomes) != len(requests):
        raise CheckFailed(f"{cls} tuning failed: {failed or report.outcomes}")
    return report.outcomes


# -- reporting ----------------------------------------------------------- #
def contract_metrics(run: dict) -> Dict[str, dict]:
    """The metrics the one-line result reports for this run."""
    if not run["traced"]:
        values = {name: run["metrics"][name] for name in END_TO_END}
    else:
        values = dict(run["counts"])
        for layer, row in run["layers"].items():
            for field, value in row.items():
                values[f"layer.{layer}.{field}"] = value
    return {name: {"value": value, "unit": UNITS[name][0]} for name, value in values.items()}


def print_run(run: dict) -> None:
    kind = "traced" if run["traced"] else "untraced"
    print(f"== {run['workload']} ({kind}, seed {run['seed']}, "
          f"{run['attempted']} requests in {run['window_s']:.2f} s)")
    for name, value in sorted(run["metrics"].items()):
        unit, better = UNITS[name]
        shown = "n/a (too few samples)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<22} {shown:<24} ({better} is better)")
    for name, value in run["counts"].items():
        print(f"  {name:<32} {value:.6g} {UNITS[name][0]}")
    if run["workload"] == "pool_cold":
        print("  note: pool workers run in their own processes; their layers and "
              "counters (measurements, executor calls, shard database hits) are "
              "not visible from the daemon and read 0 here")
    if run["traced"]:
        print(f"  {'layer':<20} {'calls':>8} {'self_s':>10} {'share':>7}")
        for layer, row in run["layers"].items():
            print(f"  {layer:<20} {row['calls']:>8d} {row['self_s']:>10.4f} "
                  f"{row['share']:>7.3f}")
    for problem in run["mismatches"]:
        print(f"  MISMATCH {problem}")


def append_bench(bench_dir: Path, record: dict) -> Path:
    path = bench_dir / "BENCH_e2e.json"
    runs = []
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(record)
    partial = path.with_suffix(".json.partial")
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": "e2e", "runs": runs}, handle, indent=1, sort_keys=True)
    os.replace(partial, path)
    return path


def run_main(args) -> int:
    bench_dir = Path(os.environ.get("BENCH_DIR", "."))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    runs = []
    for name in names:
        by_mode = {}
        for traced in modes:
            run = run_workload(name, args.seed, args.seconds, traced, bench_dir)
            by_mode[traced] = run
            runs.append(run)
            print_run(run)
        if len(by_mode) == 2:
            overhead = 1.0 - (
                by_mode[True]["metrics"]["requests_per_s"]
                / by_mode[False]["metrics"]["requests_per_s"]
            )
            by_mode[False]["metrics"]["trace_overhead"] = overhead
            print(f"  trace_overhead         {overhead:.4f} fraction "
                  "(requests_per_s lost to tracing)")
    path = append_bench(
        bench_dir, {"seed": args.seed, "seconds": args.seconds, "workloads": runs}
    )
    print(f"results appended to {path}")
    correct = not any(run["mismatches"] for run in runs)
    if len(runs) == 1:
        metrics = contract_metrics(runs[0])
    else:
        metrics = {
            f"{run['workload']}.{'traced.' if run['traced'] else ''}{name}": value
            for run in runs
            for name, value in contract_metrics(run).items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


# -- compare ------------------------------------------------------------- #
def _series(path: str) -> Dict[tuple, List[float]]:
    """(workload, metric) -> values, one per untraced run, in run order."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    series: Dict[tuple, List[float]] = {}
    for record in document["runs"]:
        for run in record["workloads"]:
            if run["traced"]:
                continue
            for name, value in run["metrics"].items():
                if value is not None:
                    series.setdefault((run["workload"], name), []).append(value)
    return series


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_main(args) -> int:
    with open(args.benchmark, "r", encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    parent, change = _series(args.parent), _series(args.change)
    regressions = 0
    print(f"{'workload':<10} {'metric':<16} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        better = UNITS[name][1]
        p, c = parent[key], change[key]
        pq1, pmed, pq3 = _quartiles(p)
        cq1, cmed, cq3 = _quartiles(c)
        sign = 1.0 if better == "higher" else -1.0
        pairs = list(zip(p, c))
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        iqr = pq3 - pq1
        verdict = "no bound (diagnostic)"
        bound = bounds.get(name)
        if bound is not None:
            worse = sign * (pmed - cmed) / pmed
            if worse > bound:
                verdict = f"REGRESSION ({worse:.1%} worse > bound {bound:.0%})"
                regressions += 1
            elif iqr / pmed > bound and not all(sign * (b - a) > 0 for a in p for b in c):
                verdict = f"unresolved (parent spread {iqr / pmed:.1%} > bound {bound:.0%})"
            else:
                verdict = f"within bound {bound:.0%}"
        if wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > iqr:
            verdict += "; gain claimed"
        print(f"{workload:<10} {name:<16} "
              f"{pq1:>9.4g}/{pmed:>9.4g}/{pq3:>9.4g} "
              f"{cq1:>9.4g}/{cmed:>9.4g}/{cq3:>9.4g} "
              f"{wins:>2}/{len(pairs):<3}  {verdict}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", help="BENCH_e2e.json of the parent commit")
        parser.add_argument("change", help="BENCH_e2e.json of the change")
        parser.add_argument(
            "--benchmark", default=str(REPO_DIR / "BENCHMARK.json"),
            help="where the end-to-end bounds are read from",
        )
        return compare_main(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="1: traced run only, 0: untraced only (default: both)",
    )
    return run_main(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
