"""Build figures through a result store (docs/FIGURES.md).

:func:`build_figure` is the single entry point behind both the ``repro
figures`` CLI and ``benchmarks/test_figures.py``: resolve a spec, resolve
its params, and either serve the finished rows from the store's figure
cache (zero decoding, zero building) or run the spec's declared
``SweepSpec``s through ``run_sweep`` and hand their reports to the builder.

Two cache layers cooperate:

* *point records* — the content-addressed LER results ``run_sweep``
  maintains (shared with ``repro sweep``);
* the *figure cache* — one record per (figure, resolved params) holding the
  final built rows (:data:`CACHE_SCHEMA`), so a warm rebuild of *any*
  figure reads exactly one store file and decodes nothing.

Both are keyed under the same ``STORE_SALT``, so a salt bump invalidates
figures and points together.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from typing import Any, Mapping

from ..experiments.sweeps import run_sweep
from ..store import STORE_SALT, ResultStore, default_store
from . import export
from .registry import FigureSpec, get

__all__ = ["CACHE_SCHEMA", "FigureResult", "build_figure", "figure_cache_key"]

#: Schema tag on figure-cache records in the result store.
CACHE_SCHEMA = "repro.figures.cache/v1"


def figure_cache_key(name: str, params: Mapping[str, Any]) -> str:
    """Content hash addressing one figure's built rows in the store.

    sha256 over the canonical JSON of (figure name, JSON-plain resolved
    params, :data:`~repro.store.STORE_SALT`, cache schema) — the same
    construction as :func:`repro.store.keys.point_key`, so prediction-
    affecting code changes invalidate figures via the usual salt bump.
    """
    payload = {
        "kind": "figure",
        "figure": name,
        "params": export.plain(dict(params)),
        "salt": STORE_SALT,
        "schema": CACHE_SCHEMA,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class FigureResult:
    """Outcome of one :func:`build_figure` call."""

    #: The registered spec that produced the rows.
    spec: FigureSpec
    #: Fully-resolved parameter dict (defaults + applied overrides).
    params: dict
    #: Built data rows (JSON-plain dicts, one per row).
    rows: list
    #: True when the rows were served from the store's figure cache without
    #: invoking the builder (and therefore without decoding anything).
    served_from_store: bool = False

    def document(self) -> dict:
        """The uniform export document for these rows (see export module)."""
        return export.result_document(self.spec, self.params, self.rows)


def build_figure(
    name: str,
    overrides: Mapping[str, Any] | None = None,
    *,
    store: "ResultStore | None | bool" = None,
    workers: int = 1,
    strict: bool = True,
) -> FigureResult:
    """Build figure ``name`` (canonical or alias), store-served if possible.

    ``store=None`` uses the default store (``REPRO_STORE_ROOT``);
    ``store=False``, or no default store, builds without a persistent store
    or figure cache — always decode, through a temporary store, so the rows
    equal a store-backed build's (this is the build the benchmark harness
    checks).  ``strict`` controls whether unknown override keys raise
    (single-figure builds) or are dropped (bulk ``--all`` overrides).
    ``workers`` is forwarded to ``run_sweep``.
    """
    spec = get(name)
    params = spec.resolve_params(overrides, strict=strict)
    if store is None:
        store = default_store()
    if store is None or store is False:
        with tempfile.TemporaryDirectory(prefix="repro-figure-") as root:
            rows = _build_rows(spec, params, ResultStore(root), workers=workers)
        return FigureResult(spec, params, rows)
    key = figure_cache_key(spec.name, params)
    cached = store.get(key)
    if cached is not None and cached.get("schema") == CACHE_SCHEMA:
        rows = [dict(r) for r in cached.get("rows", [])]
        return FigureResult(spec, params, rows, served_from_store=True)
    rows = _build_rows(spec, params, store, workers=workers)
    store.put(
        key,
        {
            "schema": CACHE_SCHEMA,
            "figure": spec.name,
            "params": export.plain(dict(params)),
            "rows": rows,
        },
    )
    return FigureResult(spec, params, rows, served_from_store=False)


def _build_rows(
    spec: FigureSpec,
    params: Mapping[str, Any],
    store: ResultStore,
    *,
    workers: int,
) -> list:
    """Run the spec's declared sweeps against ``store``, then its builder."""
    reports = [
        run_sweep(sweep_spec, store, workers=workers, ledger=False)
        for sweep_spec in spec.sweep_specs(params)
    ]
    return [export.plain(r) for r in spec.builder(dict(params), reports)]
