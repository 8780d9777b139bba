"""Tests for the benchmark-telemetry regression alarm (compare_bench.py).

The script is stdlib-only and lives outside the package, so it is loaded by
path and its ``main`` is exercised directly (no subprocess needed).
"""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "compare_bench.py")


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


@pytest.fixture
def bench_dir(tmp_path):
    baseline = tmp_path / "baseline.json"
    _write(baseline, {"demo": {"speedup": 5.0, "quality_ratio": 1.0}})
    return tmp_path, str(baseline)


class TestCompareBench:
    def test_ok_within_tolerance(self, compare_bench, bench_dir):
        tmp, baseline = bench_dir
        _write(tmp / "BENCH_demo.json", {"speedup": 4.5, "quality_ratio": 0.97})
        rc = compare_bench.main(
            ["--baseline", baseline, "--bench-dir", str(tmp), "--tolerance", "0.2"]
        )
        assert rc == 0

    def test_regression_fails(self, compare_bench, bench_dir):
        tmp, baseline = bench_dir
        _write(tmp / "BENCH_demo.json", {"speedup": 2.0, "quality_ratio": 0.97})
        rc = compare_bench.main(
            ["--baseline", baseline, "--bench-dir", str(tmp), "--tolerance", "0.2"]
        )
        assert rc == 1

    def test_warn_only_exits_zero(self, compare_bench, bench_dir):
        tmp, baseline = bench_dir
        _write(tmp / "BENCH_demo.json", {"speedup": 2.0, "quality_ratio": 0.97})
        rc = compare_bench.main(
            ["--baseline", baseline, "--bench-dir", str(tmp), "--warn-only"]
        )
        assert rc == 0

    def test_missing_file_is_warning_not_regression(self, compare_bench, bench_dir):
        tmp, baseline = bench_dir
        rc = compare_bench.main(["--baseline", baseline, "--bench-dir", str(tmp)])
        assert rc == 0

    def test_missing_metric_is_warning(self, compare_bench, bench_dir):
        tmp, baseline = bench_dir
        _write(tmp / "BENCH_demo.json", {"speedup": 5.5})
        rc = compare_bench.main(["--baseline", baseline, "--bench-dir", str(tmp)])
        assert rc == 0

    def test_non_numeric_value_is_regression(self, compare_bench, bench_dir):
        tmp, baseline = bench_dir
        _write(tmp / "BENCH_demo.json", {"speedup": "fast", "quality_ratio": 0.97})
        rc = compare_bench.main(["--baseline", baseline, "--bench-dir", str(tmp)])
        assert rc == 1

    def test_malformed_baseline_rejected(self, compare_bench, tmp_path):
        bad = tmp_path / "bad.json"
        _write(bad, {"demo": [1, 2, 3]})
        with pytest.raises(ValueError):
            compare_bench.load_baseline(str(bad))

    def test_repo_baseline_tracks_real_benchmarks(self, compare_bench):
        """The checked-in baseline stays in sync with the benchmarks that
        actually emit telemetry (catches renamed benchmarks/metrics): each
        metric is written as a ``write_bench_json`` keyword (``metric=``)
        or a payload key (``"metric":``), not merely mentioned."""
        baseline = compare_bench.load_baseline(compare_bench.DEFAULT_BASELINE)
        bench_root = os.path.dirname(compare_bench.DEFAULT_BASELINE)
        texts = []
        for f in os.listdir(bench_root):
            if f.startswith("bench_") and f.endswith(".py"):
                with open(os.path.join(bench_root, f), encoding="utf-8") as fh:
                    texts.append(fh.read())
        sources = "\n".join(texts)
        for name, metrics in baseline.items():
            assert f'"{name}"' in sources, f"baseline entry {name} has no benchmark"
            for metric in metrics:
                assert f"{metric}=" in sources or f'"{metric}":' in sources, (
                    f"baseline metric {name}.{metric} is not emitted"
                )

    def test_explorer_call_ratio_is_a_floor(self, compare_bench):
        """The host-independent call-count ratio of the explorer bench is
        gated next to its wall-clock speedup."""
        baseline = compare_bench.load_baseline(compare_bench.DEFAULT_BASELINE)
        assert {"speedup", "propose_call_ratio"} <= set(baseline["explorer"])
