"""Perf trajectory: benchmark history recording and regression comparison.

The benchmark harness (``benchmarks/``) overwrites one JSON snapshot per
figure under ``benchmarks/results/`` — useful as "current numbers", useless
as a trajectory.  This module folds those snapshots (plus, optionally, a
:mod:`repro.obs` metrics snapshot for span percentiles) into an append-only
JSONL history::

    benchmarks/history/history.jsonl    one entry per `repro bench record`

Each entry carries a ``meta`` provenance block (:func:`provenance_meta`) and
a ``manifest_key`` — a digest of the perf-relevant environment (python,
platform, cpu count, store salt) — so :func:`compare_history` only ever
compares entries produced on comparable machines.

Comparison policy (docs/CI.md): wall-clock numbers are *recorded*, never
*asserted* — CI runs ``repro bench compare`` report-only; ``--strict``
(nonzero exit on regression) is for controlled, like-for-like environments
such as a perf-dedicated host or a local before/after check.

Series direction is inferred from the metric name: throughput-like keys
(``*_per_sec``, ``*speedup*``) regress when they *drop*; latency-like keys
(``*_seconds``, span percentiles) regress when they *rise*.  Unrecognized
numeric keys are recorded but never flagged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from pathlib import Path

from .export import load_metrics

__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_HISTORY",
    "provenance_meta",
    "manifest_key",
    "results_series",
    "metrics_series",
    "record_history_entry",
    "load_history",
    "compare_history",
]

#: schema tag stamped into every history entry
HISTORY_SCHEMA = "repro.bench.history/v1"

#: repo-relative default history file (``repro bench record/compare``)
DEFAULT_HISTORY = Path("benchmarks") / "history" / "history.jsonl"

#: name suffixes that mark a series as throughput-like (bigger is better);
#: ``_ratio`` / ``_x`` cover speedup-style ratios (e.g. ``dedup_ratio``,
#: ``warm_vs_cold_x``) — checked before the latency suffixes, so a ratio
#: name never falls through to a smaller-is-better match
_UP_SUFFIXES = ("_per_sec", "_per_s", "_hz", "_ratio", "_x")
#: name fragments that mark a series as throughput-like (``speedup`` in
#: sweep_speculation.json matches here)
_UP_FRAGMENTS = ("speedup",)
#: name suffixes that mark a series as latency-like (smaller is better)
_DOWN_SUFFIXES = (
    "_seconds",
    "_s",
    "_ns",
    "_us",
    "_ms",
    "_p50_ns",
    "_p95_ns",
    "_p99_ns",
)


def provenance_meta() -> dict:
    """The uniform ``meta`` block every results JSON and history entry carries.

    Shared with ``repro.figures.bench.record`` so ad-hoc benchmark outputs
    and history entries agree on provenance keys.
    """
    from ..store.keys import STORE_SALT  # local: obs must not import store at module level

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "store_salt": STORE_SALT,
        "recorded_at": time.time(),  # lint: ok[determinism-time] provenance timestamp
    }


def manifest_key(meta: dict) -> str:
    """Digest of the perf-relevant environment: entries compare only within it."""
    basis = {
        "python": meta.get("python"),
        "platform": meta.get("platform"),
        "cpu_count": meta.get("cpu_count"),
        "store_salt": meta.get("store_salt"),
    }
    return hashlib.sha256(
        json.dumps(basis, sort_keys=True).encode()
    ).hexdigest()[:16]


def series_direction(name: str) -> str | None:
    """'up' (bigger is better), 'down' (smaller is better), or None."""
    lowered = name.lower()
    if lowered.endswith(_UP_SUFFIXES) or any(f in lowered for f in _UP_FRAGMENTS):
        return "up"
    if lowered.endswith(_DOWN_SUFFIXES):
        return "down"
    return None


def _flatten_numbers(node, prefix: str, out: dict) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if math.isfinite(node):
            out[prefix] = float(node)
        return
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "meta":
                continue  # provenance, not a measurement
            _flatten_numbers(v, f"{prefix}.{k}" if prefix else str(k), out)


def results_series(data: dict) -> dict:
    """Flat ``name -> value`` series of one benchmark results JSON."""
    out: dict = {}
    _flatten_numbers(data, "", out)
    return out


def metrics_series(path: str | Path) -> dict:
    """Span percentile series of one ``repro.obs.metrics/v1`` snapshot."""
    from .core import LatencyHistogram

    snapshot = load_metrics(path)
    out: dict = {}
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        hist = LatencyHistogram.from_dict(payload)
        if not hist.count:
            continue
        for pct in (50, 95, 99):
            out[f"span.{name}.p{pct}_ns"] = float(hist.percentile_ns(pct))
    return out


def record_history_entry(
    results_path: str | Path,
    *,
    metrics_path: str | Path | None = None,
    history_path: str | Path | None = None,
    note: str | None = None,
) -> dict:
    """Append one history entry for a results JSON (+ optional metrics).

    Returns the entry written.  The history file is append-only JSONL, same
    crash-tolerance contract as the run ledger: a torn tail line is skipped
    by :func:`load_history`, not fatal.
    """
    results_path = Path(results_path)
    with open(results_path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(
            f"{results_path} must hold a dict-shaped results JSON, "
            f"got {type(data).__name__}"
        )
    meta = data.get("meta")
    if not isinstance(meta, dict) or "python" not in meta:
        meta = provenance_meta()
    series = results_series(data)
    if metrics_path is not None:
        series.update(metrics_series(metrics_path))
    entry = {
        "schema": HISTORY_SCHEMA,
        "source": results_path.name,
        "meta": meta,
        "manifest_key": manifest_key(meta),
        "series": series,
    }
    if note:
        entry["note"] = note
    path = Path(history_path) if history_path is not None else DEFAULT_HISTORY
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(entry, default=str) + "\n")
    return entry


def load_history(path: str | Path) -> list:
    """Every parseable entry of a history file (torn tail lines skipped)."""
    out = []
    try:
        text = Path(path).read_text()
    except OSError:
        return out
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            out.append(entry)
    return out


def _median(values: list) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compare_history(
    history_path: str | Path,
    *,
    source: str | None = None,
    threshold: float = 0.25,
    window: int = 5,
) -> dict:
    """Compare each group's latest entry against its trailing baseline.

    Groups are ``(source, manifest_key)`` — a results file only ever
    compares against earlier recordings of itself on a comparable machine.
    The baseline per metric is the median of up to ``window`` prior values;
    a directional change beyond ``threshold`` (relative) is a regression or
    an improvement.  Directionless metrics are skipped.
    """
    entries = load_history(history_path)
    if source is not None:
        entries = [e for e in entries if e.get("source") == source]
    groups: dict[tuple, list] = {}
    for entry in entries:
        if entry.get("schema") != HISTORY_SCHEMA:
            continue
        group = (entry.get("source"), entry.get("manifest_key"))
        groups.setdefault(group, []).append(entry)

    regressions, improvements, skipped = [], [], []
    compared = 0
    for (src, key), group in sorted(groups.items(), key=lambda g: (str(g[0][0]), str(g[0][1]))):
        if len(group) < 2:
            skipped.append({"source": src, "manifest_key": key, "entries": len(group)})
            continue
        compared += 1
        latest = group[-1]
        prior = group[max(0, len(group) - 1 - window) : -1]
        latest_series = latest.get("series") or {}
        for name, value in sorted(latest_series.items()):
            direction = series_direction(name)
            if direction is None or not isinstance(value, (int, float)):
                continue
            baseline_values = [
                e["series"][name]
                for e in prior
                if isinstance(e.get("series", {}).get(name), (int, float))
            ]
            if not baseline_values:
                continue
            baseline = _median(baseline_values)
            if baseline == 0:
                continue
            ratio = value / baseline
            finding = {
                "source": src,
                "metric": name,
                "direction": direction,
                "baseline": baseline,
                "latest": float(value),
                "change_pct": (ratio - 1.0) * 100.0,
            }
            if direction == "up":
                if ratio < 1.0 - threshold:
                    regressions.append(finding)
                elif ratio > 1.0 + threshold:
                    improvements.append(finding)
            else:
                if ratio > 1.0 + threshold:
                    regressions.append(finding)
                elif ratio < 1.0 - threshold:
                    improvements.append(finding)

    return {
        "entries": len(entries),
        "groups": len(groups),
        "compared": compared,
        "threshold": threshold,
        "window": window,
        "regressions": regressions,
        "improvements": improvements,
        "skipped": skipped,
    }
