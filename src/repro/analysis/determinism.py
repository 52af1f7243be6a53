"""Determinism and hygiene rules (file scope).

The determinism family guards the decode path (``decode_path`` entries in
the lint config): any module whose outputs flow into store keys, stored
records or merged estimates must be a pure function of its explicit
inputs.  Wall-clock reads, ambient RNG, OS entropy, object identity and
set iteration order all smuggle per-process state into results that are
supposed to be bit-identical across hosts, workers and reruns.

Intentional exceptions are acknowledged in place with an inline pragma::

    record["updated_at"] = time.time()  # lint: ok[determinism-time] metadata

The hygiene family (mutable defaults, bare ``except:``) applies to every
linted file — those are plain correctness traps, not decode-path ones.
"""

from __future__ import annotations

import ast

from .astutil import dotted_name, import_aliases, literal_str, resolve_call, walk_calls
from .base import LintContext, Rule

__all__ = [
    "DeterminismTime",
    "DeterminismRng",
    "DeterminismEntropy",
    "DeterminismId",
    "DeterminismSetOrder",
    "DeterminismEnv",
    "HygieneMutableDefault",
    "HygieneBareExcept",
]


class _DecodePathRule(Rule):
    """File rule that only fires inside the configured decode path."""

    def check_file(self, ctx: LintContext, relpath: str) -> list:
        if not ctx.in_decode_path(relpath):
            return []
        tree = ctx.tree(relpath)
        if tree is None:
            return []
        return self._check_tree(ctx, relpath, tree, import_aliases(tree))

    def _check_tree(self, ctx, relpath, tree, aliases) -> list:  # pragma: no cover
        raise NotImplementedError


class DeterminismTime(_DecodePathRule):
    """Wall-clock reads in decode-path modules (monotonic timers allowed)."""

    name = "determinism-time"
    description = (
        "wall-clock reads (time.time, datetime.now, ...) in decode-path "
        "modules; monotonic timers (perf_counter/monotonic) stay allowed "
        "for duration stats"
    )

    #: wall-clock sources; monotonic/duration timers are deliberately absent
    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.ctime",
            "time.localtime",
            "time.gmtime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
        }
    )

    def _check_tree(self, ctx, relpath, tree, aliases):
        findings = []
        for call in walk_calls(tree):
            origin = resolve_call(call, aliases)
            if origin in self.BANNED:
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        call,
                        f"wall-clock read {origin}() in the decode path; results "
                        "must be pure in (seed, key, batch index) — use a seeded "
                        "input, or a monotonic timer for durations",
                    )
                )
        return findings


class DeterminismRng(_DecodePathRule):
    """Ambient randomness: unseeded/global RNG use in decode-path modules."""

    name = "determinism-rng"
    description = (
        "ambient randomness in decode-path modules: unseeded "
        "numpy.random.default_rng(), the random-module globals, legacy "
        "np.random.* draws"
    )

    #: numpy.random attributes that are constructors/types, not global draws
    NUMPY_OK = frozenset(
        {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
    )

    def _check_tree(self, ctx, relpath, tree, aliases):
        findings = []
        for call in walk_calls(tree):
            origin = resolve_call(call, aliases)
            if origin is None:
                continue
            if origin == "numpy.random.default_rng" and not call.args and not call.keywords:
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        call,
                        "default_rng() without a seed draws fresh OS entropy; "
                        "thread an explicit seed/SeedSequence through instead",
                    )
                )
            elif origin.startswith("random."):
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        call,
                        f"{origin}() uses the process-global random.Random; use a "
                        "seeded np.random.Generator (or random.Random(seed)) so "
                        "draws replay",
                    )
                )
            elif (
                origin.startswith("numpy.random.")
                and origin.rsplit(".", 1)[1] not in self.NUMPY_OK
            ):
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        call,
                        f"legacy global draw {origin}(); the hidden global state "
                        "breaks worker-count independence — use a seeded Generator",
                    )
                )
        return findings


class DeterminismEntropy(_DecodePathRule):
    """Direct OS-entropy reads (urandom/uuid/secrets) in decode-path modules."""

    name = "determinism-entropy"
    description = "OS entropy (os.urandom, uuid1/uuid4, secrets.*) in decode-path modules"

    BANNED = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

    def _check_tree(self, ctx, relpath, tree, aliases):
        findings = []
        for call in walk_calls(tree):
            origin = resolve_call(call, aliases)
            if origin is None:
                continue
            if origin in self.BANNED or origin.startswith("secrets."):
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        call,
                        f"{origin}() is OS entropy — unreproducible by construction; "
                        "decode-path identifiers must derive from content hashes "
                        "or seeded streams",
                    )
                )
        return findings


class DeterminismId(_DecodePathRule):
    """Builtin ``id()`` calls — per-process addresses — in decode-path modules."""

    name = "determinism-id"
    description = "builtin id() in decode-path modules (address-dependent values)"

    def _check_tree(self, ctx, relpath, tree, aliases):
        findings = []
        for call in walk_calls(tree):
            if (
                isinstance(call.func, ast.Name)
                and call.func.id == "id"
                and aliases.get("id") is None
            ):
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        call,
                        "id() is a memory address — different every process; it must "
                        "never feed a key, seed or stored value",
                    )
                )
        return findings


class DeterminismSetOrder(_DecodePathRule):
    """Set-iteration order reaching ordered products in decode-path modules."""

    name = "determinism-set-order"
    description = (
        "iteration over set displays/set() calls in decode-path modules "
        "(order varies with PYTHONHASHSEED); wrap in sorted()"
    )

    def _is_setish(self, node: ast.AST, aliases) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset") and aliases.get(node.func.id) is None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(node.left, aliases) or self._is_setish(
                node.right, aliases
            )
        return False

    def _check_tree(self, ctx, relpath, tree, aliases):
        findings = []
        message = (
            "iterating a set: element order depends on PYTHONHASHSEED and "
            "insertion history; wrap in sorted() before the order can reach "
            "returned or stored values"
        )
        for node in ast.walk(tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                # list(set(..)) / tuple(set(..)) materialize the hash order
                if node.func.id in ("list", "tuple") and node.args:
                    iters.append(node.args[0])
            for it in iters:
                if self._is_setish(it, aliases):
                    findings.append(self.finding(ctx, relpath, it, message))
        return findings


class DeterminismEnv(_DecodePathRule):
    """Environment reads outside the literal ``REPRO_*`` knob catalogue."""

    name = "determinism-env"
    description = (
        "environment reads outside the documented REPRO_* catalogue in "
        "decode-path modules"
    )

    def _check_tree(self, ctx, relpath, tree, aliases):
        prefix = ctx.config["env_prefix"]
        findings = []
        for node, name in env_read_sites(tree, aliases):
            if name is None:
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        node,
                        "environment read with a non-literal name; decode-path env "
                        f"knobs must be literal {prefix}* names so the contract "
                        "rule can audit them",
                    )
                )
            elif not name.startswith(prefix):
                findings.append(
                    self.finding(
                        ctx,
                        relpath,
                        node,
                        f"environment read {name!r} outside the {prefix}* catalogue; "
                        "undocumented ambient configuration makes hosts disagree "
                        "silently",
                    )
                )
        return findings


def env_read_sites(tree: ast.AST, aliases) -> list:
    """``(node, literal name or None)`` for every env read in the tree.

    Covers ``os.environ.get/[...]`` and ``os.getenv`` (resolved through
    import aliases).  Shared with the env-docs contract rule.
    """
    sites = []
    for call in walk_calls(tree):
        origin = resolve_call(call, aliases) or ""
        arg = call.args[0] if call.args else None
        if origin in ("os.getenv", "os.environ.get") or origin.endswith(
            (".environ.get",)
        ):
            sites.append((call, literal_str(arg) if arg is not None else None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            base = None
            if isinstance(node.value, ast.Attribute):
                base = dotted_name(node.value)
            elif isinstance(node.value, ast.Name):
                base = aliases.get(node.value.id, node.value.id)
            if base in ("os.environ", "environ") or (
                base and base.endswith(".environ")
            ):
                sites.append((node, literal_str(node.slice)))
    return sites


class HygieneMutableDefault(Rule):
    """Mutable default argument values (repo-wide warning)."""

    name = "hygiene-mutable-default"
    severity = "warning"
    description = "mutable default argument values (list/dict/set displays)"

    def check_file(self, ctx: LintContext, relpath: str) -> list:
        """Findings for every list/dict/set-display default in the file."""
        tree = ctx.tree(relpath)
        if tree is None:
            return []
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                        ast.DictComp, ast.SetComp)):
                    findings.append(
                        self.finding(
                            ctx,
                            relpath,
                            default,
                            "mutable default argument is shared across calls; "
                            "default to None and build inside",
                        )
                    )
        return findings


class HygieneBareExcept(Rule):
    """Bare ``except:`` handlers (repo-wide warning)."""

    name = "hygiene-bare-except"
    severity = "warning"
    description = "bare `except:` handlers (swallow KeyboardInterrupt/SystemExit)"

    def check_file(self, ctx: LintContext, relpath: str) -> list:
        """Findings for every untyped ``except:`` handler in the file."""
        tree = ctx.tree(relpath)
        if tree is None:
            return []
        return [
            self.finding(
                ctx,
                relpath,
                node,
                "bare except: catches KeyboardInterrupt and SystemExit too; "
                "name the exceptions (or use `except Exception`)",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None
        ]
