"""Daemon entry for the traced end-to-end run.

Wraps every call named in ``spans.LAYER_TARGETS`` in a span of its layer's
name, on one ``SpanTracer(MonotonicClock())``, then serves exactly like the
stock CLI (``python -m repro.service.daemonize``).  After the SIGTERM drain
it writes the spans to ``--trace-out``: a header line with the tracer's
``dropped`` count, then one span per line.

    python benchmarks/e2e/traced_server.py --trace-out TRACE.jsonl \\
        --foreground --journal J --socket S --pidfile P [daemonize options]

Spans are recorded in this process only.  Pool workers forked from it call
the wrapped functions straight through, so worker-side layers are not seen.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.obs import MonotonicClock, SpanTracer, spans_jsonl  # noqa: E402
from repro.service.daemonize import main as serve_main  # noqa: E402

from spans import LAYER_TARGETS  # noqa: E402

#: ring-buffer size; the run asserts nothing was dropped.
CAPACITY = 1 << 21


def _wrap(tracer: SpanTracer, name: str, fn):
    owner_pid = os.getpid()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if os.getpid() != owner_pid:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def instrument(tracer: SpanTracer) -> None:
    """Replace each target with its span-recording wrapper."""
    for name, targets in LAYER_TARGETS.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, serve_argv = parser.parse_known_args(argv)
    tracer = SpanTracer(MonotonicClock(), capacity=CAPACITY)
    instrument(tracer)
    code = serve_main(serve_argv)
    spans = tracer.finished()
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"dropped": tracer.dropped, "spans": len(spans)}) + "\n")
        handle.write(spans_jsonl(spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
