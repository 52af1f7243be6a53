#!/usr/bin/env python
"""Schema-check every ``benchmarks/results/*.json`` before it ships.

The benchmark harness regenerates these files and EXPERIMENTS.md reads
them; a benchmark that crashes halfway or serializes garbage (NaN rates, a
truncated write, an empty row list) must fail the build instead of silently
shipping a broken artifact.  CI runs this after the fast test gate (see
``.github/workflows/ci.yml`` and ``docs/CI.md``).

Checks applied to every file:

* parses as JSON and the top level is a non-empty dict or list;
* no ``NaN`` / ``Infinity`` / ``-Infinity`` anywhere (``json.dump`` happily
  emits them; they are invalid JSON and poison downstream plots);
* every row of a list-shaped file is a non-empty dict;
* every leaf number is finite (defense in depth against float('inf')
  sneaking through as a quoted string is *not* attempted — strings pass).

Files this repo's own benchmarks write also get required-key checks
(``REQUIRED_KEYS``) so a refactor that renames a column fails loudly.

Figure artifacts from the registry (docs/FIGURES.md) are recognised by
their schema tag: any ``*.json`` whose top level carries
``"schema": "repro.figures.result/v1"`` gets the uniform-document checks
(identity block, columns, row/column consistency) in addition to the
generic ones — so a results dir mixing legacy-shape files and registry
documents validates both correctly.  ``--figure FILE`` and ``--vega FILE``
apply the same checks to explicitly named exports (e.g. a CLI ``--out``
directory).

Observability artifacts (docs/OBSERVABILITY.md) are validated on demand:
``--trace FILE`` checks a ``repro.obs.trace/v1`` Chrome trace, ``--metrics
FILE`` a ``repro.obs.metrics/v1`` snapshot, ``--ledger RUNDIR`` a run-ledger
directory (``manifest.json`` + ``events.jsonl``) and ``--history FILE`` a
``repro.bench.history/v1`` JSONL (all repeatable; ``scripts/check.sh`` runs
them against freshly generated artifacts).

Usage::

    python scripts/validate_results.py            # validate the repo's dir
    python scripts/validate_results.py DIR        # validate another dir
    python scripts/validate_results.py --figure figures/fig15.json
    python scripts/validate_results.py --vega figures/fig15.vega.json
    python scripts/validate_results.py --trace t.json --metrics m.json
    python scripts/validate_results.py --ledger store/runs/RUN_ID
    python scripts/validate_results.py --history benchmarks/history/history.jsonl

Exit status 0 = every file valid; 1 = at least one problem (all problems
are listed, not just the first).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: required top-level keys for result files owned by this repo's harness
REQUIRED_KEYS = {
    "decode_throughput.json": {
        "config",
        "dedup_shots_per_sec",
        "speedup_vs_seed_loop",
    },
    "decode_backends.json": {"unionfind"},
    "sweep_resume.json": {
        "config",
        "cold_sweep_seconds",
        "store_rerun_seconds",
        "rerun_speedup",
    },
    "sweep_speculation.json": {
        "config",
        "serial_seconds",
        "speculative_seconds",
        "speedup",
        "parity_ok",
        "phases",
    },
}

#: schema tags the repro.obs exporters stamp into their artifacts
TRACE_SCHEMA = "repro.obs.trace/v1"
METRICS_SCHEMA = "repro.obs.metrics/v1"
RUN_SCHEMA = "repro.obs.run/v2"
HISTORY_SCHEMA = "repro.bench.history/v1"

#: schema tags of the figure-registry export layer (repro/figures/export.py)
FIGURE_SCHEMA = "repro.figures.result/v1"
VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: required provenance keys in a figure document's meta block
FIGURE_META_KEYS = {"python", "platform", "cpu_count", "store_salt", "recorded_at"}

#: name prefix of a sweep's decode threads (repro/experiments/parallel.py)
DECODE_THREAD_PREFIX = "repro-decode"

#: event names a run ledger may contain (repro/obs/ledger.py)
LEDGER_EVENTS = {
    "run_start",
    "run_finish",
    "point_start",
    "point_store_served",
    "point_converged",
    "batch",
    "heartbeat",
}


def _load_json(path: Path):
    with open(path) as f:
        return json.load(f, parse_constant=_reject_constant)


def validate_trace_file(path: Path) -> list[str]:
    """All problems with one ``repro.obs.trace/v1`` Chrome trace file."""
    try:
        data = _load_json(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(data, dict):
        return [f"top level must be a dict, got {type(data).__name__}"]
    problems: list[str] = []
    if data.get("schema") != TRACE_SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("traceEvents must be a non-empty list")
        events = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"traceEvents[{i}] is not a dict")
            continue
        missing = {"name", "ph", "ts", "pid"} - set(ev)
        if missing:
            problems.append(
                f"traceEvents[{i}] missing keys: {', '.join(sorted(missing))}"
            )
            continue
        if ev["ph"] not in ("X", "i"):
            problems.append(f"traceEvents[{i}] has unknown phase {ev['ph']!r}")
        if ev["ph"] == "X" and "dur" not in ev:
            problems.append(f"traceEvents[{i}] is a complete event without dur")
        if isinstance(ev["ts"], (int, float)) and ev["ts"] < 0:
            problems.append(f"traceEvents[{i}] has negative ts")
    _walk_finite(data, "$", problems)
    return problems


def validate_metrics_file(path: Path) -> list[str]:
    """All problems with one ``repro.obs.metrics/v1`` snapshot file."""
    try:
        data = _load_json(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(data, dict):
        return [f"top level must be a dict, got {type(data).__name__}"]
    problems: list[str] = []
    if data.get("schema") != METRICS_SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, expected {METRICS_SCHEMA!r}")
    counters = data.get("counters")
    if not isinstance(counters, dict):
        problems.append("counters must be a dict")
    else:
        for name, value in counters.items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"counter {name!r} must be a non-negative integer")
    hists = data.get("histograms")
    if not isinstance(hists, dict):
        problems.append("histograms must be a dict")
        hists = {}
    for name, hist in hists.items():
        if not isinstance(hist, dict):
            problems.append(f"histogram {name!r} is not a dict")
            continue
        missing = {"bucket_bounds_ns", "counts", "count", "sum_ns"} - set(hist)
        if missing:
            problems.append(
                f"histogram {name!r} missing keys: {', '.join(sorted(missing))}"
            )
            continue
        bounds, counts = hist["bucket_bounds_ns"], hist["counts"]
        if not isinstance(bounds, list) or not isinstance(counts, list):
            problems.append(f"histogram {name!r} bounds/counts must be lists")
            continue
        # counts has one overflow bucket past the last bound
        if len(counts) != len(bounds) + 1:
            problems.append(
                f"histogram {name!r} has {len(counts)} counts for "
                f"{len(bounds)} bounds (want bounds+1)"
            )
        if any(not isinstance(c, int) or c < 0 for c in counts):
            problems.append(f"histogram {name!r} counts must be non-negative ints")
        elif sum(counts) != hist["count"]:
            problems.append(
                f"histogram {name!r} count {hist['count']} != sum of bucket "
                f"counts {sum(counts)}"
            )
    _walk_finite(data, "$", problems)
    return problems


def validate_ledger_file(rundir: Path) -> list[str]:
    """All problems with one ``repro.obs.run/v2`` run-ledger directory.

    A crashed run leaves a manifest with ``status: "running"`` and possibly a
    torn final event line; both are tolerated (the ledger is append-only and
    readers skip the truncated tail), so only structural damage fails.
    Batch provenance is checked against the manifest's ``workers``: a
    decoded or overshot batch names the thread that decoded it — one of
    the ``repro-decode`` pool threads when ``workers > 1``, the calling
    thread otherwise — and a replayed batch names none.
    """
    problems: list[str] = []
    manifest_path = rundir / "manifest.json"
    try:
        manifest = _load_json(manifest_path)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    if not isinstance(manifest, dict):
        return [f"manifest top level must be a dict, got {type(manifest).__name__}"]
    if manifest.get("schema") != RUN_SCHEMA:
        problems.append(
            f"manifest schema is {manifest.get('schema')!r}, expected {RUN_SCHEMA!r}"
        )
    missing = {
        "run_id",
        "sweep",
        "spec_digest",
        "store_salt",
        "status",
        "created_at",
    } - set(manifest)
    if missing:
        problems.append(f"manifest missing keys: {', '.join(sorted(missing))}")
    _walk_finite(manifest, "$", problems)

    events_path = rundir / "events.jsonl"
    try:
        with open(events_path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        problems.append(f"events unreadable: {exc}")
        return problems
    parsed = 0
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = json.loads(line, parse_constant=_reject_constant)
        except ValueError:
            if i == len(lines) - 1:
                continue  # torn tail from a crash mid-append: tolerated
            problems.append(f"events line {i + 1} is not valid JSON")
            continue
        if not isinstance(event, dict) or "ev" not in event or "t" not in event:
            problems.append(f"events line {i + 1} is not an event dict with ev/t")
            continue
        if event["ev"] not in LEDGER_EVENTS:
            problems.append(f"events line {i + 1} has unknown event {event['ev']!r}")
        if parsed == 0 and event["ev"] != "run_start":
            problems.append(f"first event is {event['ev']!r}, expected 'run_start'")
        if event["ev"] == "batch":
            problems += _batch_provenance_problems(event, manifest.get("workers"), i)
        _walk_finite(event, f"$.events[{i}]", problems)
        parsed += 1
    if parsed == 0:
        problems.append("events.jsonl has no parseable events")
    return problems


def _batch_provenance_problems(event: dict, workers, i: int) -> list[str]:
    """Problems with the ``worker`` provenance of one ledger batch event."""
    worker = event.get("worker")
    where = f"events line {i + 1}"
    if event.get("kind") == "replayed":
        return [] if worker is None else [f"{where}: replayed batch names worker {worker!r}"]
    if not isinstance(worker, str) or not worker:
        return [f"{where}: {event.get('kind')} batch has no worker thread name"]
    pooled = isinstance(workers, int) and workers > 1
    if pooled != worker.startswith(DECODE_THREAD_PREFIX):
        return [
            f"{where}: batch decoded by {worker!r}, but the run has workers={workers!r}"
        ]
    return []


def validate_history_file(path: Path) -> list[str]:
    """All problems with one ``repro.bench.history/v1`` JSONL file."""
    problems: list[str] = []
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    parsed = 0
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line, parse_constant=_reject_constant)
        except ValueError:
            if i == len(lines) - 1:
                continue  # torn tail: tolerated, same policy as the ledger
            problems.append(f"line {i + 1} is not valid JSON")
            continue
        if not isinstance(entry, dict):
            problems.append(f"line {i + 1} top level is not a dict")
            continue
        if entry.get("schema") != HISTORY_SCHEMA:
            problems.append(
                f"line {i + 1} schema is {entry.get('schema')!r}, "
                f"expected {HISTORY_SCHEMA!r}"
            )
        if not isinstance(entry.get("source"), str) or not entry.get("source"):
            problems.append(f"line {i + 1} source must be a non-empty string")
        if not isinstance(entry.get("meta"), dict):
            problems.append(f"line {i + 1} meta must be a dict")
        if not isinstance(entry.get("manifest_key"), str):
            problems.append(f"line {i + 1} manifest_key must be a string")
        series = entry.get("series")
        if not isinstance(series, dict):
            problems.append(f"line {i + 1} series must be a dict")
            continue
        for name, value in series.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"line {i + 1} series {name!r} is not a number")
            elif not math.isfinite(value):
                problems.append(f"line {i + 1} series {name!r} is not finite")
        _walk_finite(entry.get("meta"), f"$.line{i + 1}.meta", problems)
        parsed += 1
    if parsed == 0:
        problems.append("no parseable history entries")
    return problems


def validate_figure_file(path: Path) -> list[str]:
    """All problems with one ``repro.figures.result/v1`` document file."""
    try:
        data = _load_json(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(data, dict):
        return [f"top level must be a dict, got {type(data).__name__}"]
    return _figure_document_problems(data)


def _figure_document_problems(data: dict) -> list[str]:
    problems: list[str] = []
    if data.get("schema") != FIGURE_SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, expected {FIGURE_SCHEMA!r}")
    for key in ("figure", "category", "anchor", "title"):
        if not isinstance(data.get(key), str) or not data.get(key):
            problems.append(f"{key} must be a non-empty string")
    if not isinstance(data.get("params"), dict):
        problems.append("params must be a dict")
    columns = data.get("columns")
    if (
        not isinstance(columns, list)
        or not columns
        or any(not isinstance(c, str) for c in columns)
    ):
        problems.append("columns must be a non-empty list of strings")
        columns = []
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            problems.append(f"rows[{i}] is not a non-empty dict")
        elif columns and not set(row) <= set(columns):
            extra = sorted(set(row) - set(columns))
            problems.append(f"rows[{i}] has keys outside columns: {', '.join(extra)}")
    meta = data.get("meta")
    if not isinstance(meta, dict):
        problems.append("meta must be a dict")
    else:
        missing = FIGURE_META_KEYS - set(meta)
        if missing:
            problems.append(f"meta missing keys: {', '.join(sorted(missing))}")
    _walk_finite(data, "$", problems)
    return problems


def validate_vega_file(path: Path) -> list[str]:
    """All problems with one Vega-Lite export from the figure registry."""
    try:
        data = _load_json(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(data, dict):
        return [f"top level must be a dict, got {type(data).__name__}"]
    problems: list[str] = []
    if data.get("$schema") != VEGA_LITE_SCHEMA:
        problems.append(
            f"$schema is {data.get('$schema')!r}, expected {VEGA_LITE_SCHEMA!r}"
        )
    values = data.get("data", {}).get("values") if isinstance(data.get("data"), dict) else None
    if not isinstance(values, list) or not values:
        problems.append("data.values must be a non-empty list")
    elif any(not isinstance(v, dict) for v in values):
        problems.append("data.values entries must be dicts")
    if not data.get("mark"):
        problems.append("mark is missing")
    encoding = data.get("encoding")
    if not isinstance(encoding, dict) or not encoding:
        problems.append("encoding must be a non-empty dict")
    else:
        for channel, enc in encoding.items():
            if not isinstance(enc, dict) or "field" not in enc or "type" not in enc:
                problems.append(f"encoding.{channel} needs field and type")
    _walk_finite(data, "$", problems)
    return problems


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token!r}")


def _walk_finite(node, path: str, problems: list[str]) -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            _walk_finite(v, f"{path}.{k}", problems)
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _walk_finite(v, f"{path}[{i}]", problems)
    elif isinstance(node, float) and not math.isfinite(node):
        problems.append(f"non-finite number at {path}")


def validate_file(path: Path) -> list[str]:
    """All problems with one results file (empty list = valid)."""
    try:
        with open(path) as f:
            data = json.load(f, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]

    problems: list[str] = []
    if not isinstance(data, (dict, list)):
        return [f"top level must be a dict or list, got {type(data).__name__}"]
    if not data:
        return ["top level is empty"]
    # registry documents are self-describing: apply the uniform-schema checks
    if isinstance(data, dict) and data.get("schema") == FIGURE_SCHEMA:
        return _figure_document_problems(data)
    if isinstance(data, list):
        for i, row in enumerate(data):
            if not isinstance(row, dict):
                problems.append(f"row [{i}] is {type(row).__name__}, not a dict")
            elif not row:
                problems.append(f"row [{i}] is empty")
    missing = REQUIRED_KEYS.get(path.name, set()) - (
        set(data) if isinstance(data, dict) else set()
    )
    if missing:
        problems.append(f"missing required keys: {', '.join(sorted(missing))}")
    _walk_finite(data, "$", problems)
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # observability artifacts named explicitly (repeatable flags)
    checks: list[tuple[Path, object]] = []
    positional: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--trace", "--metrics", "--ledger", "--history", "--figure", "--vega"):
            if i + 1 >= len(argv):
                print(f"{argv[i]} requires a PATH argument", file=sys.stderr)
                return 1
            kind = {
                "--trace": validate_trace_file,
                "--metrics": validate_metrics_file,
                "--ledger": validate_ledger_file,
                "--history": validate_history_file,
                "--figure": validate_figure_file,
                "--vega": validate_vega_file,
            }[argv[i]]
            checks.append((Path(argv[i + 1]), kind))
            i += 2
        else:
            positional.append(argv[i])
            i += 1

    failed = 0
    checked = 0
    for path, check in checks:
        checked += 1
        for problem in check(path):
            failed += 1
            print(f"FAIL {path.name}: {problem}", file=sys.stderr)
    if checks and not positional:
        print(f"validated {checked} artifact files, {failed} problems")
        return 1 if failed else 0

    results_dir = (
        Path(positional[0])
        if positional
        else Path(__file__).resolve().parent.parent / "benchmarks" / "results"
    )
    if not results_dir.is_dir():
        print(f"results directory not found: {results_dir}", file=sys.stderr)
        return 1
    files = sorted(results_dir.glob("*.json"))
    if not files:
        print(f"no result files under {results_dir}", file=sys.stderr)
        return 1
    invalid = 0
    for path in files:
        problems = validate_file(path)
        if problems:
            invalid += 1
            for problem in problems:
                print(f"FAIL {path.name}: {problem}", file=sys.stderr)
    print(f"validated {len(files)} result files, {invalid} invalid")
    return 1 if invalid or failed else 0


if __name__ == "__main__":
    sys.exit(main())
