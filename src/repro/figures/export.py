"""Shared export layer for figure results (docs/FIGURES.md).

One uniform result document (:data:`RESULT_SCHEMA`) wraps every figure's
rows together with its identity, resolved parameters and a
``provenance_meta`` block; :func:`rows_to_csv` and :func:`vega_document`
derive the tabular and plot-ready artifacts from that single document (the
raw -> csv -> plot split from SNIPPETS.md).  All serialization funnels
through :func:`plain` so numpy scalars/arrays become JSON-plain values and
non-finite floats (``inf`` reduction ratios at tiny shot counts) serialize
as ``null`` instead of invalid JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..store.keys import STORE_SALT

__all__ = [
    "RESULT_SCHEMA",
    "VEGA_LITE_SCHEMA",
    "THEME",
    "format_table",
    "infer_columns",
    "plain",
    "provenance_meta",
    "result_document",
    "rows_to_csv",
    "vega_document",
    "write_outputs",
]

#: Schema tag stamped on every emitted figure result document.
RESULT_SCHEMA = "repro.figures.result/v1"

#: Vega-Lite dialect targeted by :func:`vega_document`.
VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Common publication theme embedded in every Vega document, so all figures
#: share fonts/axis styling regardless of which spec produced them.
THEME: dict = {
    "font": "Helvetica Neue, Arial, sans-serif",
    "axis": {"labelFontSize": 11, "titleFontSize": 12, "grid": True},
    "legend": {"labelFontSize": 11, "titleFontSize": 12},
    "title": {"fontSize": 13, "anchor": "start"},
    "point": {"filled": True, "size": 60},
    "line": {"strokeWidth": 2},
}


def provenance_meta() -> dict:
    """The uniform ``meta`` block every results JSON and figure document carries.

    Shared by :func:`result_document` and ``repro.figures.bench.record``, so
    figure artifacts and ad-hoc benchmark outputs agree on provenance keys.
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "store_salt": STORE_SALT,
        "recorded_at": time.time(),  # lint: ok[determinism-time] provenance timestamp
    }


def plain(value: Any) -> Any:
    """Recursively convert ``value`` to JSON-plain data.

    numpy scalars/arrays become python numbers/lists, tuples become lists,
    mapping keys are stringified, and non-finite floats become ``None``
    (documented: JSON has no ``Infinity``/``NaN`` and the results validator
    rejects them).
    """
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [plain(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [plain(v) for v in value]
    if hasattr(value, "__dict__"):
        return plain(vars(value))
    return str(value)


def infer_columns(rows: Iterable[Mapping[str, Any]]) -> tuple[str, ...]:
    """Union of row keys in first-appearance order (fallback column order)."""
    out: dict[str, None] = {}
    for row in rows:
        for key in row:
            out.setdefault(str(key), None)
    return tuple(out)


def result_document(spec, params: Mapping[str, Any], rows: list[dict]) -> dict:
    """Build the uniform result document for ``spec`` + built ``rows``.

    The document is self-describing: schema tag, figure identity (canonical
    name, category, paper anchor, title), the fully-resolved parameter dict,
    the export column order, the data rows, and the standard
    ``provenance_meta`` block every recorded artifact in this repo carries.
    """
    rows = [plain(r) for r in rows]
    columns = tuple(spec.columns) or infer_columns(rows)
    return {
        "schema": RESULT_SCHEMA,
        "figure": spec.name,
        "category": spec.category,
        "anchor": spec.anchor,
        "title": spec.title,
        "params": plain(dict(params)),
        "columns": list(columns),
        "rows": rows,
        "meta": provenance_meta(),
    }


def rows_to_csv(columns: Iterable[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """Render rows as CSV text; missing/None cells are emitted blank."""
    columns = list(columns)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = []
        for col in columns:
            value = plain(row.get(col))
            cells.append("" if value is None else value)
        writer.writerow(cells)
    return buf.getvalue()


def _field_type(rows: list[dict], field: str) -> str:
    for row in rows:
        value = row.get(field)
        if isinstance(value, bool):
            return "nominal"
        if isinstance(value, (int, float)) and value is not None:
            return "quantitative"
        if value is not None:
            return "nominal"
    return "nominal"


def vega_document(doc: Mapping[str, Any], hints: Mapping[str, str] | None = None) -> dict:
    """Build a themed Vega-Lite spec from a :func:`result_document`.

    ``hints`` (usually ``FigureSpec.vega``) selects the mark and maps
    encoding channels (``x``/``y``/``color``/``detail``/``column``) to row
    fields; field types are inferred from the data.  Without hints the
    first two columns become a point chart — still valid Vega, just
    unstyled.
    """
    hints = dict(hints or {})
    rows = list(doc["rows"])
    columns = list(doc.get("columns") or infer_columns(rows))
    if "x" not in hints and columns:
        hints["x"] = columns[0]
    if "y" not in hints and len(columns) > 1:
        hints["y"] = columns[1]
    encoding = {}
    for channel in ("x", "y", "color", "detail", "column"):
        field = hints.get(channel)
        if field:
            encoding[channel] = {"field": field, "type": _field_type(rows, field)}
    return {
        "$schema": VEGA_LITE_SCHEMA,
        "config": json.loads(json.dumps(THEME)),
        "title": {"text": f"{doc['anchor']} — {doc['title']}"},
        "data": {"values": rows},
        "mark": hints.get("mark", "point"),
        "encoding": encoding,
    }


def format_table(doc: Mapping[str, Any], max_rows: int | None = 40) -> str:
    """Aligned text rendering of a result document (benchmark/CLI output)."""
    columns = list(doc.get("columns") or infer_columns(doc["rows"]))
    rows = [plain(r) for r in doc["rows"]]
    shown = rows if max_rows is None else rows[:max_rows]
    cells = [[_cell(row.get(col)) for col in columns] for row in shown]
    widths = [
        max([len(col)] + [len(line[i]) for line in cells])
        for i, col in enumerate(columns)
    ]
    lines = [f"[{doc['figure']}] {doc['anchor']} — {doc['title']}"]
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    for line in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    if max_rows is not None and len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more rows)")
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_outputs(doc: Mapping[str, Any], out_dir: Path | str,
                  formats: Iterable[str] = ("json",),
                  hints: Mapping[str, str] | None = None) -> list[Path]:
    """Write ``doc`` to ``out_dir`` in each requested format.

    ``json`` writes the uniform result document (``<name>.json``), ``csv``
    the tabular rows (``<name>.csv``) and ``vega`` the themed Vega-Lite
    spec (``<name>.vega.json``).  Returns the written paths in order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = doc["figure"]
    written: list[Path] = []
    for fmt in formats:
        if fmt == "json":
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        elif fmt == "csv":
            path = out_dir / f"{name}.csv"
            path.write_text(rows_to_csv(doc.get("columns") or (), doc["rows"]))
        elif fmt == "vega":
            path = out_dir / f"{name}.vega.json"
            path.write_text(json.dumps(vega_document(doc, hints), indent=2) + "\n")
        else:
            raise ValueError(f"unknown export format {fmt!r} (json|csv|vega)")
        written.append(path)
    return written
