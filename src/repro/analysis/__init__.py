"""Static determinism & contract analysis for the decode path (`repro lint`).

Every subsystem above the decoders — content-addressed store keys,
bit-identical sweep resume, decode-kernel parity, the sweep
scheduler, and the multi-host decode-as-a-service direction — rests on one
invariant: the decode path is deterministic, and its registries stay in
contract with the tests and docs that gate them.  This package enforces
that invariant *statically*, before a single shot is decoded.

Three rule families (full catalogue with examples: ``docs/ANALYSIS.md``):

=========================  =============================================
family                     what it catches
=========================  =============================================
``determinism-*``          wall-clock reads, ambient RNG/OS entropy,
                           ``id()``, set-iteration order and
                           undocumented env reads inside the decode-path
                           modules; plus repo-wide hygiene
                           (``hygiene-*``: mutable defaults, bare
                           ``except:``)
``contract-*``             cross-module drift: a ``DECODER_BUILDERS``
                           entry without a kernel-parity test,
                           worker-side functions rebinding module
                           globals, ``REPRO_*`` knobs missing from the
                           docs catalogue
``salt-drift``             prediction-affecting module edits that forgot
                           the ``STORE_SALT`` bump (committed digest
                           lock: ``decode_path.lock``)
=========================  =============================================

The rule registry maps rule name ->
:class:`~repro.analysis.base.Rule` instance, with ``register`` /
``names`` / ``available`` / ``get``, so downstream tooling (or a future
plugin) adds a rule without touching the runner.  The CLI front end is
``repro lint [--only RULE] [--format text|json] [--baseline FILE]
[--update-lock] PATHS`` and the CI gate is ``scripts/check_lint.py``.
Intentional violations are acknowledged in place::

    now = time.time()  # lint: ok[determinism-time] gc horizon is wall-clock

Everything here is stdlib-only and never imports the code under analysis.
"""

from __future__ import annotations

from .base import DEFAULT_CONFIG, LintContext, Rule, find_root, load_config
from .contracts import (
    ContractEnvDocs,
    ContractParityTests,
    ContractWorkerGlobals,
)
from .determinism import (
    DeterminismEntropy,
    DeterminismEnv,
    DeterminismId,
    DeterminismRng,
    DeterminismSetOrder,
    DeterminismTime,
    HygieneBareExcept,
    HygieneMutableDefault,
)
from .findings import Finding
from .runner import LintReport, run_lint
from .saltdrift import SaltDrift, module_digest, update_lock

__all__ = [
    "Finding",
    "Rule",
    "LintContext",
    "LintReport",
    "run_lint",
    "register",
    "names",
    "available",
    "get",
    "update_lock",
    "module_digest",
    "find_root",
    "load_config",
    "DEFAULT_CONFIG",
]

_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule, *, replace: bool = False) -> Rule:
    """Register a rule under its ``name``; returns it for chaining."""
    if not rule.name:
        raise ValueError("rule needs a non-empty name")
    if rule.name in _REGISTRY and not replace:
        raise ValueError(
            f"rule {rule.name!r} is already registered (pass replace=True)"
        )
    _REGISTRY[rule.name] = rule
    return rule


def names() -> list[str]:
    """All registered rule names (sorted)."""
    return sorted(_REGISTRY)


def available() -> list[str]:
    """Rule names runnable right now (all rules are stdlib-only: all of them)."""
    return names()


def get(name: str) -> Rule:
    """The registered rule of that exact name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {name!r}; registered: {', '.join(names())}"
        ) from None


for _rule in (
    DeterminismTime(),
    DeterminismRng(),
    DeterminismEntropy(),
    DeterminismId(),
    DeterminismSetOrder(),
    DeterminismEnv(),
    HygieneMutableDefault(),
    HygieneBareExcept(),
    ContractParityTests(),
    ContractWorkerGlobals(),
    ContractEnvDocs(),
    SaltDrift(),
):
    register(_rule)
del _rule
