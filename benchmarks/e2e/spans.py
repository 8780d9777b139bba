"""Layer map and the self-time/share arithmetic of the traced run.

``LAYER_TARGETS`` names, for each layer, the public calls the traced daemon
entry (``traced_server.py``) wraps in a span of that name.  A layer's self
time is its spans' durations minus the time their child spans cover; its
share is self time over the traced total, so the shares sum to 1.

The traced total is the daemon's root spans (wire decode/encode, ``handle``
and ``tick``) plus ``frontend.transport``: the client-timed socket calls
minus the daemon-side root spans those calls contain.  That makes the client
call the parent of the daemon work it carried, so the whole request path,
socket included, is attributed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Tuple

#: layer -> the ``module:attribute`` calls wrapped in a span of that name.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "frontend.wire": (
        "repro.service.frontend:encode_line",
        "repro.service.frontend:decode_line",
    ),
    "daemon.handle": ("repro.service.daemon:TuningDaemon.handle",),
    "daemon.tick": ("repro.service.daemon:TuningDaemon.tick",),
    "journal.append": (
        "repro.service.journal:RequestJournal.accept",
        "repro.service.journal:RequestJournal.mark_running",
        "repro.service.journal:RequestJournal.complete",
        "repro.service.journal:RequestJournal.fail",
    ),
    # The private compaction step, so both the drain-time snapshot and the
    # automatic one inside an append are seen.
    "journal.snapshot": ("repro.service.journal:RequestJournal._snapshot_locked",),
    "scheduler.submit": ("repro.service.scheduler:TuningService.submit",),
    "scheduler.step": ("repro.service.scheduler:TuningService.step",),
    "pool.submit": ("repro.service.pool:TuningWorkerPool.submit",),
    "pool.step": ("repro.service.pool:TuningWorkerPool.step",),
    "session.propose": (
        "repro.core.autotune.engine:TuningSession.propose",
        "repro.core.autotune.baselines:BaselineSession.propose",
    ),
    "session.update": (
        "repro.core.autotune.engine:TuningSession.update",
        "repro.core.autotune.baselines:BaselineSession.update",
    ),
    "cost_model.fit": ("repro.core.autotune.cost_model:CostModel.fit",),
    "cost_model.predict": ("repro.core.autotune.cost_model:CostModel.predict_score",),
    "explorer.propose": (
        "repro.core.autotune.explorer:ParallelRandomWalkExplorer.propose",
    ),
    "measurer.prepare": ("repro.core.autotune.config:Measurer.prepare_batch",),
    "measurer.finish": ("repro.core.autotune.config:Measurer.finish_batch",),
    "executor.run": ("repro.gpusim.executor:GPUExecutor.run_batch_groups",),
    "database.lookup": ("repro.core.autotune.database:TuningDatabase.lookup",),
    "database.put": ("repro.core.autotune.database:TuningDatabase.put",),
}

TRANSPORT = "frontend.transport"
LAYERS: Tuple[str, ...] = (
    "frontend.wire",
    TRANSPORT,
    *(name for name in LAYER_TARGETS if name != "frontend.wire"),
)

#: daemon-side roots that run inside a client socket call.
_CALL_ROOTS = ("frontend.wire", "daemon.handle")


def read_trace(path: str) -> Tuple[dict, List[dict]]:
    """A trace file: one header line (``dropped``, ``spans``), then one
    span per line in the ``Span.to_wire`` shape."""
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle if line.strip()]
    return header, spans


def layer_table(
    spans: Iterable[Mapping[str, object]],
    window: Tuple[float, float],
    transport_calls: int,
    transport_seconds: float,
) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``/``self_s``/``share`` over the span trees whose
    root started inside ``window``.

    A span whose parent is absent is a root.  ``transport_calls`` and
    ``transport_seconds`` are the client's socket calls started in the same
    window.  Raises ``ValueError`` when a layer's self time is negative (a
    child outside its parent: the trace is malformed)."""
    spans = list(spans)
    ids = {span["span_id"] for span in spans}
    children: Dict[object, List[Mapping[str, object]]] = defaultdict(list)
    roots = []
    start, end = window
    for span in spans:
        parent = span["parent_id"]
        if parent is not None and parent in ids:
            children[parent].append(span)
        elif start <= span["start"] < end:
            roots.append(span)

    calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    daemon_total = 0.0
    in_calls = 0.0
    stack = list(roots)
    for root in roots:
        duration = _duration(root)
        daemon_total += duration
        if root["name"] in _CALL_ROOTS:
            in_calls += duration
    while stack:
        span = stack.pop()
        kids = children.get(span["span_id"], ())
        own = _duration(span) - sum(_duration(kid) for kid in kids)
        calls[span["name"]] += 1
        self_s[span["name"]] += own
        stack.extend(kids)
    calls[TRANSPORT] = int(transport_calls)
    self_s[TRANSPORT] = max(0.0, float(transport_seconds) - in_calls)
    total = daemon_total + self_s[TRANSPORT]
    table = {}
    for name in calls:
        if self_s[name] < -1e-9:
            raise ValueError(f"layer {name} has negative self time {self_s[name]}")
        table[name] = {
            "calls": calls[name],
            "self_s": self_s[name],
            "share": self_s[name] / total if total > 0 else 0.0,
        }
    return table


def _duration(span: Mapping[str, object]) -> float:
    return float(span["end"]) - float(span["start"])
