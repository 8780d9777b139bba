"""Exporters: JSON-lines, Prometheus-style text exposition, summary table.

All exporters are pure functions over a :class:`MetricsSnapshot` (and span
lists) — they never touch live instruments, so an export can run while the
service keeps recording.  Three formats:

* :func:`metrics_jsonl` / :func:`spans_jsonl` — one JSON object per line,
  the archival format written next to ``BENCH_*.json`` telemetry;
* :func:`prometheus_text` — text exposition a scrape endpoint can serve
  verbatim (dotted names sanitised to underscores, histogram buckets
  cumulative with ``le`` labels and a ``+Inf`` terminator);
* :func:`summary` — fixed-width human table for ``describe()``-style CLI
  output.

:func:`format_describe` is the companion for the structured-introspection
surface: ``TuningDatabase.describe()`` / ``TuningService.describe()``
return JSON-native dicts (so the future daemon serves status over the
wire), and this renders one as the classic human one-liner.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from .metrics import MetricsSnapshot
from .trace import Span

__all__ = [
    "format_describe",
    "metrics_jsonl",
    "spans_jsonl",
    "prometheus_text",
    "summary",
]


def format_describe(info: object) -> str:
    """Render a ``describe()`` dict as a compact human one-liner.

    ``{"kind": "TuningDatabase", "records": 3, ...}`` becomes
    ``TuningDatabase[records=3, ...]``; nested describe dicts (a service's
    database, a daemon's journal) render recursively.  Pure function over
    JSON-native data — the inverse direction (parsing) is never needed,
    because the dict itself is the machine-readable form.
    """
    if not isinstance(info, dict):
        return repr(info)
    kind = info.get("kind", "describe")
    parts = []
    for key, value in info.items():
        if key == "kind":
            continue
        rendered = format_describe(value) if isinstance(value, dict) else repr(value)
        parts.append(f"{key}={rendered}")
    return f"{kind}[{', '.join(parts)}]"


def metrics_jsonl(snapshot: MetricsSnapshot) -> str:
    """One JSON line per instrument: ``{"kind": ..., "name": ..., ...}``."""
    lines = []
    for name in sorted(snapshot.counters):
        lines.append(json.dumps(
            {"kind": "counter", "name": name, "value": snapshot.counters[name]},
            sort_keys=True,
        ))
    for name in sorted(snapshot.gauges):
        lines.append(json.dumps(
            {"kind": "gauge", "name": name, "value": snapshot.gauges[name]},
            sort_keys=True,
        ))
    for name in sorted(snapshot.histograms):
        data = snapshot.histograms[name]
        lines.append(json.dumps(
            {
                "kind": "histogram",
                "name": name,
                "bounds": list(data.bounds),
                "counts": list(data.counts),
                "total": data.total,
                "sum": data.sum,
                "min": data.min,
                "max": data.max,
            },
            sort_keys=True,
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def spans_jsonl(spans: Iterable[Span]) -> str:
    lines = [json.dumps(span.to_wire(), sort_keys=True) for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    """Prometheus metric names allow [a-zA-Z0-9_:]; dots become underscores."""
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch in "_:") else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_float(value: float) -> str:
    """Render floats the way Prometheus text format expects (no exponents
    needed for our ranges; integers without trailing .0 noise)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Text exposition format: TYPE comments, cumulative histogram buckets."""
    out: List[str] = []
    for name in sorted(snapshot.counters):
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} counter")
        out.append(f"{prom} {snapshot.counters[name]}")
    for name in sorted(snapshot.gauges):
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} gauge")
        out.append(f"{prom} {_prom_float(snapshot.gauges[name])}")
    for name in sorted(snapshot.histograms):
        data = snapshot.histograms[name]
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(data.bounds, data.counts):
            cumulative += count
            out.append(f'{prom}_bucket{{le="{_prom_float(bound)}"}} {cumulative}')
        out.append(f'{prom}_bucket{{le="+Inf"}} {data.total}')
        out.append(f"{prom}_sum {_prom_float(data.sum)}")
        out.append(f"{prom}_count {data.total}")
    return "\n".join(out) + ("\n" if out else "")


def summary(snapshot: MetricsSnapshot) -> str:
    """Fixed-width human table: name, kind, and the interesting numbers."""
    rows: List[tuple] = []
    for name in sorted(snapshot.counters):
        rows.append((name, "counter", str(snapshot.counters[name])))
    for name in sorted(snapshot.gauges):
        rows.append((name, "gauge", _prom_float(snapshot.gauges[name])))
    for name in sorted(snapshot.histograms):
        data = snapshot.histograms[name]
        detail = (
            f"n={data.total} mean={data.mean():.4g}"
            + (f" min={data.min:.4g} max={data.max:.4g}" if data.total else "")
        )
        rows.append((name, "histogram", detail))
    if not rows:
        return "(no metrics recorded)\n"
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    lines = [f"{name.ljust(name_w)}  {kind.ljust(kind_w)}  {detail}" for name, kind, detail in rows]
    return "\n".join(lines) + "\n"
