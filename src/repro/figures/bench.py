"""Benchmark-harness recording helpers.

The CLI and the ``benchmarks/`` pytest harness share this one
implementation.  Results land in ``REPRO_BENCH_RESULTS`` (default
``benchmarks/results`` under the current working directory; documented in
docs/FIGURES.md).  Scaled figure builds use ``repro figures build
--shots/--distances/--seed``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import export

__all__ = [
    "default_results_dir",
    "record",
    "record_figure",
    "record_merge",
    "run_once",
]


def default_results_dir() -> Path:
    """Results directory: ``REPRO_BENCH_RESULTS`` or ``benchmarks/results``."""
    raw = os.environ.get("REPRO_BENCH_RESULTS")
    if raw:
        return Path(raw)
    return Path("benchmarks") / "results"


def record(name: str, data, *, results_dir: Path | str | None = None) -> Path:
    """Persist benchmark output as ``<results_dir>/<name>.json`` and echo it.

    Dict-shaped outputs get a uniform ``meta`` provenance block (python,
    platform, cpu count, store salt, timestamp) stamped in — the same keys
    ``repro bench record`` carries into the perf history, so ad-hoc results
    and history entries are comparable (``meta`` is excluded from the
    history's numeric series).  Returns the written path.
    """
    if isinstance(data, dict):
        from ..obs import provenance_meta

        data = dict(data, meta=provenance_meta())
    results_dir = Path(results_dir) if results_dir is not None else default_results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}.json"
    with open(path, "w") as f:
        json.dump(data, f, indent=2, default=_jsonable)
    print(f"\n[{name}] -> {path}")
    return path


def record_merge(name: str, sections: dict, *, results_dir: Path | str | None = None) -> Path:
    """Merge per-section rows into one results JSON.

    Lets several benchmark tests contribute to the same file (e.g.
    ``decode_backends.json``: one section per decoder path) without the
    last writer clobbering the others.  A legacy flat layout (a single
    top-level row) is discarded on first merge.  Returns the written path.
    """
    results_dir = Path(results_dir) if results_dir is not None else default_results_dir()
    path = results_dir / f"{name}.json"
    merged = {}
    if path.exists():
        try:
            with open(path) as f:
                merged = json.load(f)
        except ValueError:
            merged = {}
    if not isinstance(merged, dict) or "config" in merged:
        merged = {}  # legacy flat layout: replaced by per-section rows
    merged.pop("meta", None)  # restamped by record() with fresh provenance
    merged.update(sections)
    return record(name, merged, results_dir=results_dir)


def record_figure(result, *, results_dir: Path | str | None = None) -> Path:
    """Write a built figure's uniform result document to the results dir.

    ``result`` is the :class:`repro.figures.build.FigureResult` returned by
    ``build_figure``; the document lands at ``<results_dir>/<name>.json``
    in the shared :data:`repro.figures.export.RESULT_SCHEMA` shape — the
    only sanctioned way a figure benchmark persists its rows.
    """
    doc = result.document()
    results_dir = Path(results_dir) if results_dir is not None else default_results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{doc['figure']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\n[{doc['figure']}] -> {path}")
    return path


def _jsonable(obj):
    plain = export.plain(obj)
    if isinstance(plain, (dict,)) and hasattr(obj, "__dict__"):
        return {k: v for k, v in plain.items() if not k.startswith("_")}
    return plain


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
