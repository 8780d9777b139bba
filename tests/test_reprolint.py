"""Fixture tests for ``tools/reprolint`` — the repo-contract checker.

Every rule gets at least one *positive* fixture (the bad pattern is caught,
at the right line, with the right code) and one *negative* fixture (the
sanctioned pattern passes).  Fixtures are written into a temp directory
shaped like the repository (``src/repro/...``, ``tests/...``) because rule
scopes are expressed as repo-relative path prefixes; ``run_paths(root=...)``
anchors them there.

The final test runs the linter over the *actual* repository — the same
invocation as ``make reprolint`` / CI — so a contract violation introduced
anywhere in ``src/``/``tests/``/``benchmarks/`` fails tier-1 too, not just
the lint job.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from tools.reprolint import all_codes, all_rules, run_paths
from tools.reprolint.baseline import load_baseline, split_baselined, write_baseline
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.runner import REPO_ROOT


def lint(tmp_path, files, use_baseline=False, baseline_path=None):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip("\n"))
    return run_paths(
        [str(tmp_path)],
        root=str(tmp_path),
        use_baseline=use_baseline,
        baseline_path=baseline_path,
    )


def codes(result):
    return [f.code for f in result.findings]


def lines(result, code):
    return [f.line for f in result.findings if f.code == code]


# --------------------------------------------------------------------------- #
class TestFramework:
    def test_rule_catalogue(self):
        rules = all_rules()
        assert len(rules) >= 6
        table = all_codes()
        assert len(table) >= 6
        assert all(code.startswith("REPRO") for code in table)
        # one description per code, all non-empty
        assert all(table.values())

    def test_parse_error_is_reported_not_fatal(self, tmp_path):
        result = lint(tmp_path, {"src/broken.py": "def f(:\n", "src/ok.py": "x = 1\n"})
        assert codes(result) == ["REPRO000"]
        assert result.files == 2

    def test_findings_sorted_and_positioned(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random

                def f():
                    b = random.random()
                    a = random.random()
                    return a, b
                """
            },
        )
        assert codes(result) == ["REPRO102", "REPRO102"]
        assert lines(result, "REPRO102") == [4, 5]


# --------------------------------------------------------------------------- #
class TestRngDiscipline:
    def test_unseeded_constructors_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random
                import numpy as np

                r = random.Random()
                g = np.random.default_rng()
                s = np.random.SeedSequence()
                n = np.random.default_rng(None)
                """
            },
        )
        assert codes(result) == ["REPRO101"] * 4
        assert lines(result, "REPRO101") == [4, 5, 6, 7]

    def test_global_state_calls_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "tests/t.py": """
                import random
                import numpy as np

                random.seed(7)
                x = random.random()
                np.random.shuffle([1, 2])
                sr = random.SystemRandom()
                """
            },
        )
        assert codes(result) == ["REPRO102"] * 4

    def test_from_import_binding_resolved(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                from random import random as rnd
                from numpy.random import default_rng

                x = rnd()
                g = default_rng()
                """
            },
        )
        assert codes(result) == ["REPRO102", "REPRO101"]

    def test_seeded_generators_pass(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random
                import numpy as np

                r = random.Random(7)
                g = np.random.default_rng(7)
                kids = np.random.SeedSequence(1).spawn(3)
                gen = np.random.Generator(np.random.PCG64(5))
                y = r.random()  # method on an owned generator: fine
                z = g.standard_normal(4)
                """
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
LOCKED_CLASS_HEADER = """
import threading

class Store:
    def __init__(self):
        self._lock = threading.RLock()
        self._records = {}
        self.hits = 0

    def put(self, k, v):
        with self._lock:
            self._records[k] = v
            self.hits += 1
"""


class TestLockDiscipline:
    def test_unlocked_access_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/store.py": LOCKED_CLASS_HEADER
                + """
    def peek(self, k):
        return self._records.get(k)
                """
            },
        )
        assert codes(result) == ["REPRO201"]
        assert lines(result, "REPRO201") == [15]
        assert "peek" in result.findings[0].message

    def test_non_underscore_counter_also_guarded(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/store.py": LOCKED_CLASS_HEADER
                + """
    def describe(self):
        return f"{self.hits} hits"
                """
            },
        )
        assert codes(result) == ["REPRO201"]

    def test_locked_access_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/store.py": LOCKED_CLASS_HEADER
                + """
    def peek(self, k):
        with self._lock:
            return self._records.get(k)
                """
            },
        )
        assert result.ok

    def test_lock_held_docstring_exempts_helper(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/store.py": LOCKED_CLASS_HEADER
                + """
    def _evict(self, k):
        \"\"\"Drop one key (lock held).\"\"\"
        del self._records[k]
                """
            },
        )
        assert result.ok

    def test_init_and_methods_and_unguarded_attrs_exempt(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/store.py": LOCKED_CLASS_HEADER
                + """
    def reset(self):
        # calling an own method (which takes the lock itself) is fine,
        # and attrs never touched under the lock are not guarded.
        self.put("a", 1)
        self.label = "fresh"
                """
            },
        )
        assert result.ok

    def test_rule_scoped_to_src(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "tests/helper.py": LOCKED_CLASS_HEADER
                + """
    def peek(self, k):
        return self._records.get(k)
                """
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
class TestFrozenMutation:
    def test_self_mutation_in_frozen_class_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/m.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Point:
                    x: int

                    def shift(self, dx):
                        self.x = self.x + dx
                """
            },
        )
        assert codes(result) == ["REPRO301"]
        assert lines(result, "REPRO301") == [8]

    def test_post_init_object_setattr_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/m.py": """
                import dataclasses

                @dataclasses.dataclass(frozen=True)
                class Point:
                    x: int

                    def __post_init__(self):
                        object.__setattr__(self, "x", abs(self.x))

                    def shifted(self, dx):
                        return dataclasses.replace(self, x=self.x + dx)
                """
            },
        )
        assert result.ok

    def test_cross_file_instance_mutation_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/m.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Space:
                    pruned: bool

                    @classmethod
                    def square(cls, pruned=True):
                        return cls(pruned)
                """,
                "tests/t.py": """
                from m import Space

                def test_mutate():
                    s = Space(True)
                    s.pruned = False
                    p = Space.square()
                    p.pruned = False
                """,
            },
        )
        assert codes(result) == ["REPRO302", "REPRO302"]
        assert lines(result, "REPRO302") == [5, 7]

    def test_reassigned_name_stops_tracking(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/m.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Space:
                    pruned: bool

                class Bag:
                    pass

                def f():
                    s = Space(True)
                    s = Bag()
                    s.pruned = False  # now a mutable Bag: fine
                """
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
GOOD_SESSION = """
class GoodSession:
    def __init__(self):
        self.result = object()
        self._done = False

    @property
    def finished(self):
        return self._done

    def propose(self):
        return []

    def update(self, configs, executions):
        self._done = True
"""


SEARCHING_TUNER = """
class Engine:
    def __init__(self, database):
        self.database = database

    def _search(self, result):
        records = yield []
        return records

    def tune(self):
        record = self.database.lookup(self)
        return record
"""


class TestSessionPurity:
    def test_good_session_passes(self, tmp_path):
        result = lint(tmp_path, {"src/s.py": GOOD_SESSION})
        assert result.ok

    def test_wrong_shapes_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/s.py": """
                class BadSession:
                    def propose(self, batch_size):
                        return []

                    def update(self, configs):
                        pass
                """
            },
        )
        found = codes(result)
        assert found == ["REPRO401"] * 4  # propose arity, update arity,
        # missing finished, missing result
        # missing-finished/-result anchor at the class (line 1); the arity
        # findings anchor at their defs.
        assert lines(result, "REPRO401") == [1, 1, 2, 5]

    def test_database_reference_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/s.py": GOOD_SESSION.replace(
                    "    def update(self, configs, executions):\n        self._done = True\n",
                    """\
    def update(self, configs, executions):
        if TuningDatabase is not None:
            self.engine.database.lookup(configs)
        self._done = True
""",
                )
            },
        )
        assert codes(result) == ["REPRO402", "REPRO402"]

    def test_search_loop_database_reference_caught(self, tmp_path):
        # A tuner's search generator is session state too: it runs inside
        # session.propose(), whatever class defines it.
        source = SEARCHING_TUNER.replace(
            "        records = yield []\n",
            "        records = yield self.database.lookup(result)\n",
        )
        result = lint(tmp_path, {"src/t.py": source})
        assert codes(result) == ["REPRO402"]
        assert lines(result, "REPRO402") == [6]
        assert "Engine._search" in result.findings[0].message

    def test_tune_driver_may_use_the_database(self, tmp_path):
        # The same class's tune() is a driver: it looks up and stores
        # around the session, never inside it.
        result = lint(tmp_path, {"src/t.py": SEARCHING_TUNER})
        assert result.ok

    def test_protocol_definition_exempt(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/p.py": """
                from typing import Protocol

                class SessionProtocol(Protocol):
                    def propose(self):
                        ...

                    def update(self, configs, executions):
                        ...
                """
            },
        )
        assert result.ok

    def test_non_session_class_ignored(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/s.py": """
                class Planner:
                    def propose(self, idea):  # no update(): not a session
                        return idea
                """
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
class TestBatchedPath:
    def test_scalar_calls_in_src_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/hot.py": """
                from repro.core.autotune import ScalarRandomWalkExplorer
                from repro.core.autotune.features import feature_vector

                def slow(measurer, configs, params, spec):
                    rows = [feature_vector(c, params, spec) for c in configs]
                    return [measurer.measure(c) for c in configs], rows
                """
            },
        )
        assert codes(result) == ["REPRO501"] * 4
        # import, import, feature_vector name load, .measure() call
        assert lines(result, "REPRO501") == [1, 2, 5, 6]

    def test_batched_calls_pass(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/hot.py": """
                from repro.core.autotune import ParallelRandomWalkExplorer
                from repro.core.autotune.features import feature_matrix

                def fast(measurer, configs, array, params, spec):
                    rows = feature_matrix(array, params, spec)
                    return measurer.measure_batch(configs), rows
                """
            },
        )
        assert result.ok

    def test_allowlisted_module_and_tests_exempt(self, tmp_path):
        source = """
        def helper(measurer, c):
            return measurer.measure(c)
        """
        result = lint(
            tmp_path,
            {
                "src/repro/core/autotune/config.py": source,
                "tests/test_parity.py": source,
                "benchmarks/bench_x.py": source,
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
class TestCoreDeterminism:
    def test_clock_and_env_reads_in_core_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/core/autotune/x.py": """
                import os
                import time
                from time import perf_counter

                def f():
                    t0 = time.time()
                    t1 = perf_counter()
                    flag = os.environ.get("FAST")
                    alt = os.getenv("ALT")
                    return t0, t1, flag, alt
                """
            },
        )
        assert codes(result) == [
            "REPRO601",
            "REPRO601",
            "REPRO602",
            "REPRO602",
        ]
        assert lines(result, "REPRO601") == [6, 7]
        assert lines(result, "REPRO602") == [8, 9]

    def test_outside_core_scope_is_repro701_not_601(self, tmp_path):
        # Clock reads outside the core are no longer exempt — they trip the
        # repo-wide clock-discipline rule instead of the core-only one, and
        # exactly once per read (the scopes are disjoint).
        result = lint(
            tmp_path,
            {
                "src/repro/service/driver.py": """
                import time

                def wall():
                    return time.perf_counter()
                """,
                "benchmarks/bench_y.py": """
                import time

                def wall():
                    return time.time()
                """,
            },
        )
        assert codes(result) == ["REPRO701", "REPRO701"]

    def test_deterministic_core_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/core/autotune/x.py": """
                import math

                def f(xs):
                    return sorted(math.log2(x) for x in xs)
                """
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
class TestClockDiscipline:
    def test_clock_reads_caught_everywhere(self, tmp_path):
        # REPRO701 is repo-wide: tests, tools and service code alike.
        result = lint(
            tmp_path,
            {
                "tests/test_x.py": """
                import time

                def wall():
                    return time.monotonic()
                """,
                "tools/helper.py": """
                from time import perf_counter_ns

                def wall():
                    return perf_counter_ns()
                """,
                "src/repro/service/driver.py": """
                import datetime

                def stamp():
                    return datetime.datetime.now()
                """,
            },
        )
        assert codes(result) == ["REPRO701", "REPRO701", "REPRO701"]

    def test_clock_edge_module_exempt(self, tmp_path):
        # src/repro/obs/clock.py is the one sanctioned edge.
        result = lint(
            tmp_path,
            {
                "src/repro/obs/clock.py": """
                import time

                class MonotonicClock:
                    def now(self):
                        return time.perf_counter()
                """
            },
        )
        assert result.ok

    def test_core_reads_stay_repro601(self, tmp_path):
        # Inside the core scopes REPRO601 owns the finding — exactly one
        # report per read, never a 601+701 double.
        result = lint(
            tmp_path,
            {
                "src/repro/core/autotune/x.py": """
                import time

                def f():
                    return time.time()
                """
            },
        )
        assert codes(result) == ["REPRO601"]

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        # Pacing is allowed; only *reading* the clock is disciplined.
        result = lint(
            tmp_path,
            {
                "tests/test_pacing.py": """
                import time

                def pace():
                    time.sleep(0.01)
                """
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
class TestDurabilityOwner:
    def test_durability_calls_caught_outside_the_store(self, tmp_path):
        # A second log implementation in src/: every alias and from-import
        # form of the durability calls is reported.
        result = lint(
            tmp_path,
            {
                "src/repro/service/mylog.py": """
                import os
                import shutil
                import tempfile as tf
                from os import fsync, truncate

                def write(path, fh):
                    fd, tmp = tf.mkstemp()
                    fsync(fh.fileno())
                    os.replace(tmp, path)
                    os.rename(path, path + ".old")
                    truncate(path, 0)
                    os.ftruncate(fh.fileno(), 0)
                    os.fdatasync(fh.fileno())
                    shutil.move(tmp, path)
                    staged = tf.NamedTemporaryFile(delete=False)
                    folder = tf.mkdtemp()
                """
            },
        )
        assert codes(result) == ["REPRO801"] * 10
        assert lines(result, "REPRO801") == list(range(7, 17))

    def test_store_module_tests_and_plain_io_pass(self, tmp_path):
        # The store module is the owner; tests inject faults through these
        # calls; ordinary file I/O in src/ is not a durability call.
        result = lint(
            tmp_path,
            {
                "src/repro/core/autotune/store.py": """
                import os

                def install(tmp, path):
                    os.replace(tmp, path)
                """,
                "tests/test_x.py": """
                import os

                def tear(path):
                    os.truncate(path, 3)
                """,
                "src/repro/service/pidfile.py": """
                import os

                def write(path):
                    with open(path, "w") as fh:
                        fh.write(str(os.getpid()))
                    os.unlink(path)
                """,
            },
        )
        assert result.ok


# --------------------------------------------------------------------------- #
class TestSuppressions:
    BAD = """
    import random

    x = random.random()
    """

    def test_same_line_suppression(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random

                x = random.random()  # reprolint: disable=REPRO102 - fixture
                """
            },
        )
        assert result.ok
        assert result.suppressed == 1

    def test_comment_above_suppression(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random

                # reprolint: disable=REPRO102 - fixture
                x = random.random()
                """
            },
        )
        assert result.ok and result.suppressed == 1

    def test_disable_all_and_multiple_codes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random

                x = random.random()  # reprolint: disable=all
                y = random.Random()  # reprolint: disable=REPRO101,REPRO102
                """
            },
        )
        assert result.ok and result.suppressed == 2

    def test_wrong_code_does_not_silence(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                import random

                x = random.random()  # reprolint: disable=REPRO101 - wrong code
                """
            },
        )
        assert codes(result) == ["REPRO102"]

    def test_unknown_code_reported(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/a.py": """
                x = 1  # reprolint: disable=REPRO999
                """
            },
        )
        assert codes(result) == ["REPRO000"]
        assert "REPRO999" in result.findings[0].message


# --------------------------------------------------------------------------- #
class TestBaseline:
    FILES = {
        "src/a.py": """
        import random

        x = random.random()
        """
    }

    def test_round_trip_grandfathers_findings(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")
        first = lint(tmp_path, self.FILES)
        assert codes(first) == ["REPRO102"]

        write_baseline(baseline_path, first.findings)
        loaded = load_baseline(baseline_path)
        assert sum(loaded.values()) == 1

        again = run_paths(
            [str(tmp_path)],
            root=str(tmp_path),
            baseline_path=baseline_path,
            use_baseline=True,
        )
        assert again.ok
        assert [f.code for f in again.baselined] == ["REPRO102"]

    def test_new_findings_still_fail_with_baseline(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")
        first = lint(tmp_path, self.FILES)
        write_baseline(baseline_path, first.findings)

        # A second, textually identical violation: the baseline covers one
        # copy (count semantics), the new one fails.
        (tmp_path / "src/a.py").write_text(
            "import random\n\nx = random.random()\nx = random.random()\n"
        )
        again = run_paths(
            [str(tmp_path)],
            root=str(tmp_path),
            baseline_path=baseline_path,
            use_baseline=True,
        )
        assert [f.code for f in again.findings] == ["REPRO102"]
        assert [f.code for f in again.baselined] == ["REPRO102"]

    def test_fingerprint_survives_line_moves(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")
        first = lint(tmp_path, self.FILES)
        write_baseline(baseline_path, first.findings)

        # Prepend unrelated lines: the finding moves but stays baselined.
        (tmp_path / "src/a.py").write_text(
            "import random\n\nA = 1\nB = 2\n\nx = random.random()\n"
        )
        again = run_paths(
            [str(tmp_path)],
            root=str(tmp_path),
            baseline_path=baseline_path,
            use_baseline=True,
        )
        assert again.ok and len(again.baselined) == 1

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(bad))

    def test_split_respects_counts(self, tmp_path):
        first = lint(tmp_path, self.FILES)
        fp = first.findings[0].fingerprint()
        new, grandfathered = split_baselined(first.findings, {fp: 5})
        assert not new and len(grandfathered) == 1


# --------------------------------------------------------------------------- #
class TestCli:
    def test_exit_codes_and_write_baseline(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("import random\nx = random.random()\n")
        baseline = str(tmp_path / "baseline.json")

        argv = ["--root", str(tmp_path), "--baseline", baseline, str(src)]
        assert reprolint_main(argv) == 1
        out = capsys.readouterr().out
        assert "REPRO102" in out and "1 new finding(s)" in out

        assert reprolint_main(argv + ["--write-baseline"]) == 0
        assert reprolint_main(argv) == 0  # grandfathered now
        assert reprolint_main(argv + ["--no-baseline"]) == 1

    def test_json_format(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("import random\nx = random.random()\n")
        argv = [
            "--root",
            str(tmp_path),
            "--baseline",
            str(tmp_path / "baseline.json"),
            "--format",
            "json",
            str(src),
        ]
        assert reprolint_main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "REPRO102"
        assert payload["findings"][0]["fingerprint"]

    def test_missing_path_usage_error(self, tmp_path, capsys):
        assert reprolint_main(["--root", str(tmp_path), "nope"]) == 2

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "REPRO101",
            "REPRO201",
            "REPRO301",
            "REPRO401",
            "REPRO501",
            "REPRO601",
            "REPRO801",
        ):
            assert code in out


# --------------------------------------------------------------------------- #
class TestRepositoryIsClean:
    def test_repo_passes_reprolint(self):
        """The same gate as ``make reprolint``: no new findings anywhere in
        src/tests/benchmarks/tools against the checked-in baseline."""
        result = run_paths(
            [f"{REPO_ROOT}/{p}" for p in ("src", "tests", "benchmarks", "tools")],
            root=REPO_ROOT,
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_checked_in_baseline_is_empty(self):
        """Repository policy: fix or suppress, don't grandfather."""
        baseline = load_baseline(f"{REPO_ROOT}/tools/reprolint/baseline.json")
        assert baseline == {}
