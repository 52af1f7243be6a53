"""Exporters and readers for the obs layer: Chrome traces, metrics, summaries.

Two on-disk schemas, both validated by ``scripts/validate_results.py``:

* ``repro.obs.trace/v1`` — Chrome trace-event JSON (the object form:
  ``{"traceEvents": [...]}``), loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.  Events are complete events (``"ph": "X"``) with
  microsecond ``ts``/``dur`` normalized to the earliest event, one
  ``tid`` lane per thread (the coordinator and each decode thread).
* ``repro.obs.metrics/v2`` — a snapshot of counters plus the
  :func:`summarize` rows of the recorder's spans.

:func:`summarize` is the one span summary: per-span-kind count/total and
p50/p95/p99, computed *exactly* from the raw durations.  ``repro trace
summarize`` runs it over a trace file, and a metrics snapshot stores its
rows, so both report the same numbers for the same recorder.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Recorder, active

__all__ = [
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "chrome_trace",
    "metrics_snapshot",
    "write_trace",
    "write_metrics",
    "load_trace",
    "load_metrics",
    "summarize",
    "summarize_trace",
    "phase_totals",
    "format_summary",
]

TRACE_SCHEMA = "repro.obs.trace/v1"
METRICS_SCHEMA = "repro.obs.metrics/v2"

#: the keys of one :func:`summarize` row
_ROW_KEYS = frozenset(
    ("name", "count", "total_s", "mean_us", "p50_us", "p95_us", "p99_us")
)


def chrome_trace(events: list, counters: dict | None = None) -> dict:
    """Chrome trace-event JSON object for a list of internal-form events.

    ``ts``/``dur`` convert ns -> µs (the format's unit) and are normalized
    to the earliest timestamp so the viewer opens at t=0.  Instant events
    (``dur == 0``) become ``"ph": "i"`` marks; everything else is a
    complete event ``"ph": "X"``.
    """
    t0 = min((ev["ts"] for ev in events), default=0)
    trace_events = []
    for ev in events:
        out = {
            "name": ev["name"],
            "cat": ev["name"].split(".")[0],
            "ts": (ev["ts"] - t0) / 1000.0,
            "pid": ev["pid"],
            "tid": ev.get("tid", 0),
        }
        if ev["dur"] == 0:
            out["ph"] = "i"
            out["s"] = "p"  # process-scoped instant mark
        else:
            out["ph"] = "X"
            out["dur"] = ev["dur"] / 1000.0
        if ev.get("args"):
            out["args"] = dict(ev["args"])
        trace_events.append(out)
    doc = {"schema": TRACE_SCHEMA, "traceEvents": trace_events}
    if counters:
        doc["counters"] = dict(counters)
    return doc


def metrics_snapshot(recorder: Recorder) -> dict:
    """The ``repro.obs.metrics/v2`` snapshot of a recorder.

    ``spans`` holds the exact :func:`summarize` rows of every recorded
    event, the rows ``repro trace summarize`` prints for the same recorder.
    """
    return {
        "schema": METRICS_SCHEMA,
        "counters": dict(recorder.counters),
        "spans": summarize(recorder.events),
    }


def write_trace(path=None, recorder: Recorder | None = None) -> str:
    """Write the Chrome trace JSON; returns the path written.

    Defaults to the active recorder and its configured ``trace_path``.
    """
    rec = recorder if recorder is not None else active()
    if rec is None:
        raise RuntimeError("tracing is not enabled (obs.configure or REPRO_TRACE)")
    target = path or rec.trace_path
    if target is None:
        raise ValueError("no trace path: pass one or configure trace_path")
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(chrome_trace(rec.events, rec.counters), indent=2) + "\n"
    )
    return str(target)


def write_metrics(path=None, recorder: Recorder | None = None) -> str:
    """Write the metrics snapshot JSON; returns the path written."""
    rec = recorder if recorder is not None else active()
    if rec is None:
        raise RuntimeError("tracing is not enabled (obs.configure or REPRO_METRICS)")
    target = path or rec.metrics_path
    if target is None:
        raise ValueError("no metrics path: pass one or configure metrics_path")
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(metrics_snapshot(rec), indent=2) + "\n")
    return str(target)


def load_trace(path) -> list[dict]:
    """Internal-form events (integer-ns ``ts``/``dur``) from a trace file.

    Accepts both the object form this package writes and a bare
    ``traceEvents`` array (Chrome accepts either).  Raises ``ValueError``
    on anything that is not a trace file.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        raw = data.get("traceEvents")
    elif isinstance(data, list):
        raw = data
    else:
        raw = None
    if not isinstance(raw, list):
        raise ValueError(f"{path}: not a Chrome trace-event file (no traceEvents)")
    events = []
    for i, ev in enumerate(raw):
        if not isinstance(ev, dict) or "name" not in ev or "ts" not in ev:
            raise ValueError(f"{path}: traceEvents[{i}] is not a trace event")
        events.append(
            {
                "name": str(ev["name"]),
                # round, not truncate: µs floats times 1000 land a hair
                # either side of the integer ns that were written
                "ts": round(float(ev["ts"]) * 1000),
                "dur": round(float(ev.get("dur", 0)) * 1000),
                "pid": ev.get("pid", 0),
                "args": ev.get("args") or {},
            }
        )
    return events


def _exact_percentile(sorted_ns: list[int], q: float) -> int:
    idx = max(0, -(-int(q * len(sorted_ns)) // 100) - 1)  # ceil(q/100*n) - 1
    return sorted_ns[min(idx, len(sorted_ns) - 1)]


def summarize(events: list) -> list[dict]:
    """Per-span-kind breakdown rows, largest total time first.

    Percentiles are exact (from the sorted raw durations).  Rows:
    ``name``/``count``/``total_s``/``mean_us``/``p50_us``/``p95_us``/
    ``p99_us``.  Note that nested spans (a ``decode.kernel`` inside a
    ``sweep.idle`` wait) each report their own wall time, so totals across
    kinds can exceed elapsed time.
    """
    durations: dict[str, list[int]] = {}
    for ev in events:
        durations.setdefault(ev["name"], []).append(int(ev["dur"]))
    rows = []
    for name, durs in durations.items():
        durs.sort()
        total = sum(durs)
        rows.append(
            {
                "name": name,
                "count": len(durs),
                "total_s": total / 1e9,
                "mean_us": total / len(durs) / 1000.0,
                "p50_us": _exact_percentile(durs, 50) / 1000.0,
                "p95_us": _exact_percentile(durs, 95) / 1000.0,
                "p99_us": _exact_percentile(durs, 99) / 1000.0,
            }
        )
    rows.sort(key=lambda r: (-r["total_s"], r["name"]))
    return rows


def summarize_trace(path) -> list[dict]:
    """:func:`summarize` over a trace file on disk."""
    return summarize(load_trace(path))


def phase_totals(events: list | None = None) -> dict:
    """``{span kind: {"count", "total_s", "p50_us", "p95_us", "p99_us"}}``.

    The scheduler-overhead breakdown shape recorded by
    ``benchmarks/test_sweep_speculation.py`` (dispatch vs. apply vs. idle).
    Defaults to the active recorder's events.
    """
    if events is None:
        rec = active()
        events = rec.events if rec is not None else []
    return {
        row["name"]: {k: v for k, v in row.items() if k != "name"}
        for row in summarize(events)
    }


def format_summary(rows: list[dict]) -> str:
    """Human-readable table of :func:`summarize` rows."""
    if not rows:
        return "no spans recorded"
    header = (
        f"{'span':<24} {'count':>8} {'total_s':>10} {'mean_us':>12} "
        f"{'p50_us':>10} {'p95_us':>10} {'p99_us':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name']:<24} {r['count']:>8} {r['total_s']:>10.3f} "
            f"{r['mean_us']:>12.1f} {r['p50_us']:>10.1f} {r['p95_us']:>10.1f} "
            f"{r['p99_us']:>10.1f}"
        )
    return "\n".join(lines)


def load_metrics(path) -> dict:
    """Parse a ``repro.obs.metrics/v2`` snapshot file.

    Raises ``ValueError`` unless the file has the v2 schema, a counters
    dict and a ``spans`` list of :func:`summarize` rows.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"{path}: not a {METRICS_SCHEMA} snapshot")
    if not isinstance(data.get("counters"), dict):
        raise ValueError(f"{path}: counters must be a dict")
    spans = data.get("spans")
    if not isinstance(spans, list) or not all(
        isinstance(row, dict) and row.keys() == _ROW_KEYS for row in spans
    ):
        raise ValueError(
            f"{path}: spans must be a list of rows with keys "
            f"{', '.join(sorted(_ROW_KEYS))}"
        )
    return data
