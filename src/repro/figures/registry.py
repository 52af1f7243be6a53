"""Figure registry: canonical figure name -> :class:`FigureSpec`.

This is the one figure layer (docs/FIGURES.md).  Every paper figure/table
the repo reproduces is one :class:`FigureSpec` entry in
:data:`FIGURE_BUILDERS` — the same name -> builder registry shape as
``repro.experiments.ler.DECODER_BUILDERS`` and the lint-rule registry.  A spec bundles:

* identity — the canonical name (``fig14_ibm``, ``table2``, ...), the paper
  anchor it reproduces and a one-line title;
* a *parameter schema* — the complete default parameter dict; callers may
  only override keys that exist in it, and the builder has no other
  defaults;
* optionally the figure's *data needs* as declarative ``SweepSpec``s
  (:meth:`FigureSpec.sweep_specs`): the only place an LER point grid is
  stated;
* a *builder* — ``(params, reports) -> list[row dict]``, where ``reports``
  holds one ``SweepReport`` per declared sweep (empty for specs without
  sweeps);
* the *paper checks* — ``checks(rows)`` asserts the paper-value claims the
  built rows must reproduce.

Canonical names are the single id used by the CLI, the benchmark harness
and the emitted result files.  :data:`ALIASES` maps legacy spellings
(``fig01c``, ``fig14``, ...) onto canonical names so existing
``benchmarks/results/*.json`` artifacts and muscle memory keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

__all__ = [
    "ALIASES",
    "FIGURE_BUILDERS",
    "FigureSpec",
    "canonical_name",
    "categories",
    "get",
    "names",
    "register",
]

#: Canonical name -> registered spec.  Populated by :func:`register` calls
#: in :mod:`repro.figures.builders`; iteration order is registration order
#: (paper order).
FIGURE_BUILDERS: dict[str, "FigureSpec"] = {}

#: Legacy / convenience spelling -> canonical registry name.  Keys cover the
#: historical zero-padded benchmark module names (``fig01c`` ...) and the
#: bare ``fig14`` shorthand for the headline IBM variant.
ALIASES: dict[str, str] = {
    "fig01c": "fig1c",
    "fig01d": "fig1d",
    "fig03c": "fig3c",
    "fig04a": "fig4a",
    "fig04b": "fig4b",
    "fig06": "fig6",
    "fig07": "fig7",
    "fig14": "fig14_ibm",
}


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one reproducible paper figure/table."""

    #: Canonical registry id (``fig1c`` ... ``table5``); also the stem of
    #: every emitted artifact file.
    name: str
    #: Coarse grouping used by ``repro figures list``: ``"analytic"`` (no
    #: sampling), ``"sampled"`` (Monte-Carlo but not an LER sweep),
    #: ``"ler-sweep"`` (store-backed LER sweeps) or ``"engine"`` (wall-clock
    #: engine measurements).
    category: str
    #: Paper anchor this spec reproduces, e.g. ``"Fig. 14"`` or ``"Table 2"``.
    anchor: str
    #: One-line human description (shown by ``repro figures list``).
    title: str
    #: ``(params, reports) -> list[dict]``; each dict is one data row.
    #: ``reports`` holds one ``SweepReport`` per :meth:`sweep_specs` entry.
    builder: Callable[[dict, list], list[dict]]
    #: ``rows -> None``: asserts the paper-value claims the rows reproduce.
    checks: Callable[[list[dict]], None]
    #: Complete default parameter dict — doubles as the override schema.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Column order for tabular exports; columns missing from a row are
    #: emitted blank (multi-part figures use a ``kind`` column).
    columns: tuple[str, ...] = ()
    #: Optional ``params -> list[SweepSpec]`` declaring the LER sweeps the
    #: builder reads; ``build_figure`` runs them and passes their reports.
    sweeps: Callable[[dict], list] | None = None
    #: Vega-Lite encoding hints (``mark``/``x``/``y``/``color``/``detail``).
    vega: Mapping[str, str] = field(default_factory=dict)
    #: Whether built rows may be cached in the result store.  Specs whose
    #: rows are wall-clock measurements (fig20, fig22) set False: a cached
    #: timing would describe whichever host and code built it first.
    cacheable: bool = True

    def resolve_params(self, overrides: Mapping[str, Any] | None = None,
                       *, strict: bool = True) -> dict:
        """Merge ``overrides`` into the default params.

        With ``strict`` (the default) an override key absent from the schema
        raises :class:`ValueError`; non-strict resolution silently drops
        unknown keys (used by bulk ``build --all`` overrides that apply
        "wherever meaningful").
        """
        params = dict(self.params)
        if overrides:
            unknown = sorted(set(overrides) - set(params))
            if unknown and strict:
                raise ValueError(
                    f"unknown parameter(s) for figure {self.name!r}: "
                    f"{', '.join(unknown)} (schema: {', '.join(sorted(params))})"
                )
            params.update({k: v for k, v in overrides.items() if k in params})
        return params

    def sweep_specs(self, params: Mapping[str, Any]) -> list:
        """Expand the declared data needs to ``SweepSpec``s ([] if none)."""
        if self.sweeps is None:
            return []
        return list(self.sweeps(dict(params)))

    def with_builder(self, builder: Callable[[dict, list], list[dict]]) -> "FigureSpec":
        """Copy of this spec with ``builder`` swapped and no sweeps (test seam)."""
        return replace(self, builder=builder, sweeps=None)


def register(spec: FigureSpec) -> FigureSpec:
    """Add ``spec`` to :data:`FIGURE_BUILDERS` (duplicate names rejected)."""
    if spec.name in FIGURE_BUILDERS:
        raise ValueError(f"figure {spec.name!r} is already registered")
    if spec.name in ALIASES:
        raise ValueError(f"figure name {spec.name!r} collides with an alias")
    FIGURE_BUILDERS[spec.name] = spec
    return spec


def canonical_name(name: str) -> str:
    """Resolve ``name`` (canonical or alias) to the canonical registry id.

    Raises :class:`KeyError` with the known-name list for unknown names.
    """
    resolved = ALIASES.get(name, name)
    if resolved not in FIGURE_BUILDERS:
        raise KeyError(
            f"unknown figure {name!r}; known: {', '.join(names())}"
        )
    return resolved


def get(name: str) -> FigureSpec:
    """Look up the spec for ``name`` (alias-aware; KeyError if unknown)."""
    return FIGURE_BUILDERS[canonical_name(name)]


def names() -> list[str]:
    """All canonical figure names, in registration (paper) order."""
    return list(FIGURE_BUILDERS)


def categories() -> dict[str, list[str]]:
    """Canonical names grouped by spec category, in registration order."""
    out: dict[str, list[str]] = {}
    for spec in FIGURE_BUILDERS.values():
        out.setdefault(spec.category, []).append(spec.name)
    return out
