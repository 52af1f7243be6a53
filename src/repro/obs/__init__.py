"""repro.obs: deterministic tracing, metrics & profiling for the pipeline.

Span instrumentation (sample → dedup → kernel decode → cache → store
commit; dispatch/apply/replay/overshoot/idle in the sweep schedulers),
worker-count-independent latency histograms, and Chrome-trace/metrics
exporters.  Phase 2 adds cross-run surfaces: a durable run ledger
(:mod:`.ledger` — manifests + event logs under ``runs/`` in the store) and
a benchmark perf-trajectory history (:mod:`.history`).  Zero-overhead when
disabled; observability output never enters store keys or
prediction-affecting record fields (see docs/OBSERVABILITY.md for the span
catalogue, run-ledger schema and the bit-identity contract).
"""

from .core import (
    DEFAULT_BUCKET_BOUNDS_NS,
    LatencyHistogram,
    Recorder,
    Stopwatch,
    active,
    configure,
    count,
    disable,
    enabled,
    event,
    reset,
    span,
    stopwatch,
)
from .export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    format_summary,
    load_metrics,
    load_trace,
    metrics_snapshot,
    phase_totals,
    summarize,
    summarize_metrics,
    summarize_trace,
    write_metrics,
    write_trace,
)
from .history import (
    HISTORY_SCHEMA,
    compare_history,
    load_history,
    provenance_meta,
    record_history_entry,
)
from .ledger import (
    NULL_RUN_WRITER,
    RUN_SCHEMA,
    RunLedger,
    RunWriter,
    ledger_env_enabled,
    mint_run_id,
    sweep_manifest,
    watch_snapshot,
)

__all__ = [
    "DEFAULT_BUCKET_BOUNDS_NS",
    "LatencyHistogram",
    "Recorder",
    "Stopwatch",
    "active",
    "configure",
    "count",
    "disable",
    "enabled",
    "event",
    "reset",
    "span",
    "stopwatch",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "chrome_trace",
    "format_summary",
    "load_metrics",
    "load_trace",
    "metrics_snapshot",
    "phase_totals",
    "summarize",
    "summarize_metrics",
    "summarize_trace",
    "write_metrics",
    "write_trace",
    "HISTORY_SCHEMA",
    "compare_history",
    "load_history",
    "provenance_meta",
    "record_history_entry",
    "NULL_RUN_WRITER",
    "RUN_SCHEMA",
    "RunLedger",
    "RunWriter",
    "ledger_env_enabled",
    "mint_run_id",
    "sweep_manifest",
    "watch_snapshot",
]
