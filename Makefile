# Convenience entry points. The tier-1 gate is `make test` — the same
# command CI runs (.github/workflows/ci.yml) and ROADMAP.md documents.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint reprolint stress daemonize-smoke bench bench-batched bench-service bench-explorer bench-cost-model bench-store bench-daemon bench-e2e-selftest compare-bench

test:
	$(PYTHON) -m pytest -x -q

# Style/correctness lint (ruff) + repo-contract lint (reprolint); both gate
# the CI lint job.
lint:
	ruff check src tests benchmarks tools
	$(PYTHON) -m tools.reprolint

# AST-based invariant checker (tools/reprolint): determinism, locking,
# frozen-dataclass, session-purity and batched-path contracts.
reprolint:
	$(PYTHON) -m tools.reprolint

# Long-running stress tests (excluded from tier-1 by pytest.ini; CI runs
# them in a non-blocking job).
stress:
	$(PYTHON) -m pytest -m slow -q

# Full daemonised-wrapper lifecycle against a real process: double-fork
# start on a pool backend with two real worker processes, a tuning submit
# over the unix socket via DaemonClient, SIGTERM, clean drain and pidfile
# removal (runs in the non-blocking stress CI job).
daemonize-smoke:
	$(PYTHON) -m pytest tests/test_daemonize.py -m slow -q

bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q -s

bench-batched:
	$(PYTHON) -m pytest benchmarks/bench_batched_measurement.py -q -s

bench-service:
	$(PYTHON) -m pytest benchmarks/bench_tuning_service.py -q -s

bench-explorer:
	$(PYTHON) -m pytest benchmarks/bench_explorer.py -q -s

bench-cost-model:
	$(PYTHON) -m pytest benchmarks/bench_cost_model.py -q -s

bench-store:
	$(PYTHON) -m pytest benchmarks/bench_record_store.py -q -s

bench-daemon:
	$(PYTHON) -m pytest benchmarks/bench_daemon.py -q -s

# Self-test of the end-to-end benchmark (benchmarks/e2e, ~35 s); its
# pool_cold workload drives the serving pool's worker processes behind the
# real CLI daemon, as daemonize-smoke does.  The harness puts each daemon
# socket at a path relative to the working directory, and AF_UNIX allows
# ~100 bytes: pytest's default temp root under /tmp is too deep, so use a
# local one.
bench-e2e-selftest:
	$(PYTHON) -m pytest benchmarks/e2e -q --basetemp=.e2e-selftest

# Diff the latest BENCH_*.json telemetry against benchmarks/bench_baseline.json
# (exit non-zero on regressions beyond the tolerance; CI runs it as a hard gate).
compare-bench:
	$(PYTHON) benchmarks/compare_bench.py --bench-dir .
