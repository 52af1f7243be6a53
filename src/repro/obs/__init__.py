"""repro.obs: deterministic tracing, metrics & profiling for the pipeline.

Span instrumentation (sample → dedup → kernel decode → store commit;
dispatch/apply/overshoot/idle in the sweep scheduler), one exact span
summary (:func:`summarize`) shared by ``repro trace summarize`` and the
metrics snapshot, and Chrome-trace/metrics exporters, plus a durable run
ledger (:mod:`.ledger` — manifests + event logs under ``runs/`` in the
store).  Zero-overhead when disabled; observability output never enters
store keys or prediction-affecting record fields (see
docs/OBSERVABILITY.md for the span catalogue, run-ledger schema and the
bit-identity contract).
"""

from .core import (
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
    summarize_trace,
    write_metrics,
    write_trace,
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
    "summarize_trace",
    "write_metrics",
    "write_trace",
    "NULL_RUN_WRITER",
    "RUN_SCHEMA",
    "RunLedger",
    "RunWriter",
    "ledger_env_enabled",
    "mint_run_id",
    "sweep_manifest",
    "watch_snapshot",
]
