"""Alternating parent/change pairs of the end-to-end benchmark, then compare.

A perf change is judged on pairs of untraced ``benchmarks/e2e/run.py`` runs,
one on the parent and one on the change per seed, with the side that runs
first alternating from pair to pair, and then on ``run.py compare`` of the
two sides' ``BENCH_e2e.json`` files.  This script runs that protocol:

    python tools/e2e_pairs.py --parent HEAD --pairs 10 --seed 970
    python tools/e2e_pairs.py --parent main --change HEAD --workload hot

* The parent is exported with ``git archive`` into ``<out>/parent-tree``,
  so it runs from its own tree.  The change is this checkout's working
  tree, or an export of ``--change`` into ``<out>/change-tree``.
* Pair ``i`` runs seed ``--seed + i``.  For each workload the two sides
  run back to back: the parent first in even pairs, the change first in
  odd ones.
* Each side appends to its own ``<out>/<side>/BENCH_e2e.json``, and each
  run's output is kept in ``<out>/<side>/<workload>-<seed>.log``.  The
  daemons' sockets live under the side's directory, at a path relative to
  it, so keep ``--out`` short.
* A run that fails or reports incorrect results stops the script, since
  its numbers would mean nothing.  At the end ``run.py compare`` of the
  change's tree prints the verdict; its exit code is the script's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
WORKLOADS = ("cold", "pool_cold", "hot", "mixed")
SIDES = ("parent", "change")


def export(rev: str, target: Path) -> Path:
    """Extract ``git archive <rev>`` of this repository into ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_DIR), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def run_side(tree: Path, bench_dir: Path, workload: str, seed: int) -> dict:
    """One untraced run of ``workload`` from ``tree``, as long as the
    benchmark's own timed window; returns its summary (the last line
    ``run.py`` prints)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["BENCH_DIR"] = "."
    argv = [
        sys.executable,
        str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=bench_dir, env=env, capture_output=True, text=True)
    log = bench_dir / f"{workload}-{seed}.log"
    log.write_text(done.stdout + done.stderr, encoding="utf-8")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree} {workload} seed {seed} failed (exit {done.returncode}); see {log}")
    summary = json.loads(lines[-1])
    if not summary["correct"]:
        raise SystemExit(f"{tree} {workload} seed {seed} reported incorrect results; see {log}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument(
        "--change", help="git revision of the change side (default: this working tree)"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="a workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--out", default="e2e-pairs", help="output directory (created)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    out = Path(args.out).resolve()
    trees = {"parent": export(args.parent, out / "parent-tree")}
    trees["change"] = export(args.change, out / "change-tree") if args.change else REPO_DIR
    bench_dirs = {}
    for side in SIDES:
        bench_dirs[side] = out / side
        bench_dirs[side].mkdir()

    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload or WORKLOADS:
            rates = {}
            for side in order:
                summary = run_side(trees[side], bench_dirs[side], workload, seed)
                rates[side] = summary["metrics"]["requests_per_s"]["value"]
            print(
                f"pair {pair + 1}/{args.pairs} seed {seed} {workload:<9} "
                f"first {order[0]:<6} requests_per_s parent {rates['parent']:.4g} "
                f"change {rates['change']:.4g}",
                flush=True,
            )

    compare = [
        sys.executable,
        str(trees["change"] / "benchmarks" / "e2e" / "run.py"),
        "compare",
        str(bench_dirs["parent"] / "BENCH_e2e.json"),
        str(bench_dirs["change"] / "BENCH_e2e.json"),
    ]
    return subprocess.run(compare).returncode


if __name__ == "__main__":
    raise SystemExit(main())
