"""Declarative figure/analysis registry (docs/FIGURES.md).

One :class:`~repro.figures.registry.FigureSpec` per paper figure/table,
registered in :data:`~repro.figures.registry.FIGURE_BUILDERS` — the same
name -> builder registry shape as ``DECODER_BUILDERS`` and the kernel/lint
registries.  A spec is the whole figure: params, declared LER sweeps, row
builder and paper checks.  :func:`~repro.figures.build.build_figure`
resolves a spec through a result store (decode on miss, zero decoding on a
warm store) and the export layer (:mod:`repro.figures.export`) derives the
JSON / CSV / Vega-Lite artifacts from one uniform result document.
``benchmarks/test_figures.py`` and the ``repro figures`` CLI are both thin
clients of this package; the harness recording helpers live in
:mod:`repro.figures.bench`.
"""

from . import builders as _builders  # noqa: F401  (registers all specs)
from .build import CACHE_SCHEMA, FigureResult, build_figure, figure_cache_key
from .export import (
    RESULT_SCHEMA,
    format_table,
    result_document,
    rows_to_csv,
    vega_document,
    write_outputs,
)
from .registry import (
    ALIASES,
    FIGURE_BUILDERS,
    FigureSpec,
    canonical_name,
    categories,
    get,
    names,
    register,
)

__all__ = [
    "ALIASES",
    "CACHE_SCHEMA",
    "FIGURE_BUILDERS",
    "FigureResult",
    "FigureSpec",
    "RESULT_SCHEMA",
    "build_figure",
    "canonical_name",
    "categories",
    "figure_cache_key",
    "format_table",
    "get",
    "names",
    "register",
    "result_document",
    "rows_to_csv",
    "vega_document",
    "write_outputs",
]
