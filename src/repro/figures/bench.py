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
    every figure result document carries.  Returns the written path.
    """
    if isinstance(data, dict):
        data = dict(data, meta=export.provenance_meta())
    results_dir = Path(results_dir) if results_dir is not None else default_results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}.json"
    with open(path, "w") as f:
        json.dump(data, f, indent=2, default=_jsonable)
    print(f"\n[{name}] -> {path}")
    return path


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
