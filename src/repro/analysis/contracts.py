"""Cross-module contract rules (repo scope).

These rules hold *pairs* of artifacts in contract: the decoder registry
vs. the kernel-parity test matrix, worker-side code vs. the no-global-
mutation rule, and ``REPRO_*`` env reads vs. the documentation catalogue.
Each runs once per lint invocation against fixed repo-relative paths from
the lint config — they fire regardless of which paths were passed, since
a contract can be broken from either side.

Everything is resolved statically from source (no imports), so a contract
break that would crash at import time still lints cleanly to a finding.
"""

from __future__ import annotations

import ast
import re

from .astutil import dotted_name, import_aliases, literal_str
from .base import LintContext, Rule
from .determinism import env_read_sites

__all__ = [
    "ContractParityTests",
    "ContractWorkerGlobals",
    "ContractEnvDocs",
]


def _dict_assign(tree: ast.AST, name: str) -> ast.Dict | None:
    """The dict literal bound to a module-level ``name = {...}`` assignment."""
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and isinstance(getattr(node, "value", None), ast.Dict)
            ):
                return node.value
    return None


class ContractParityTests(Rule):
    """Every ``DECODER_BUILDERS`` entry appears in the parity-test matrix.

    The kernel-parity matrix in ``tests/test_kernels.py`` is the gate
    that keeps the host's decode path bit-identical to the scalar pass for
    every decoder family; a decoder registered without a parity case is a
    decoder whose kernels can silently drift.  The rule requires each
    registry key to appear as a string literal inside some
    ``pytest.mark.parametrize(...)`` call of the test file.
    """

    name = "contract-parity-tests"
    scope = "repo"
    description = "every DECODER_BUILDERS entry has a kernel-parity case in tests/test_kernels.py"

    def check_repo(self, ctx: LintContext) -> list:
        """Cross-check DECODER_BUILDERS keys against the parity-test file."""
        builders_path = ctx.config["builders_module"]
        tests_path = ctx.config["parity_tests"]
        tree = ctx.tree(builders_path)
        if tree is None:
            return [
                self.finding(ctx, builders_path, 1, "cannot parse the decoder registry module")
            ]
        registry = _dict_assign(tree, "DECODER_BUILDERS")
        if registry is None:
            return [
                self.finding(
                    ctx, builders_path, 1, "no DECODER_BUILDERS dict literal found"
                )
            ]
        test_tree = ctx.tree(tests_path)
        if test_tree is None:
            return [
                self.finding(
                    ctx, tests_path, 1,
                    "cannot parse the parity-test file the decoder registry is "
                    "gated by",
                )
            ]
        covered: set = set()
        for node in ast.walk(test_tree):
            if isinstance(node, ast.Call):
                origin = dotted_name(node.func) or ""
                if origin.endswith("parametrize"):
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        for sub in ast.walk(arg):
                            value = literal_str(sub)
                            if value is not None:
                                covered.add(value)
        findings = []
        for key_node in registry.keys:
            key = literal_str(key_node)
            if key is None:
                findings.append(
                    self.finding(
                        ctx, builders_path, key_node,
                        "DECODER_BUILDERS key is not a string literal; registry "
                        "names must be static so tests and specs can reference them",
                    )
                )
            elif key not in covered:
                findings.append(
                    self.finding(
                        ctx, builders_path, key_node,
                        f"decoder {key!r} has no parametrized case in {tests_path}; "
                        "add it to the kernel-parity matrix before registering",
                    )
                )
        return findings


class ContractWorkerGlobals(Rule):
    """Worker-side functions must not rebind module globals.

    Functions reachable from the task entry point (``worker_seeds`` in the
    lint config, by default ``submit_task``, which reaches the task runner
    and ``run_surgery_ler`` below it) run on every decode thread of a sweep
    at once; a ``global`` rebind there is a data race between those threads
    (an unlocked read-modify-write of shared module state), the classic
    source of "works serial, drifts threaded" bugs.  Reachability is a
    lightweight module-local call graph over the configured worker modules:
    named calls, names passed as arguments (``pool.submit(_run_task,
    ...)``), and methods of classes the reachable code instantiates.
    A rebind that only the coordinator can execute is acknowledged with
    ``# lint: ok[contract-worker-globals] reason``.
    """

    name = "contract-worker-globals"
    scope = "repo"
    description = "functions reachable from submit_task do not rebind module globals"

    def check_repo(self, ctx: LintContext) -> list:
        """Walk the worker call graph and flag ``global`` rebinds."""
        modules: dict[str, ast.AST] = {}
        for relpath in ctx.config["worker_modules"]:
            tree = ctx.tree(relpath)
            if tree is not None:
                modules[relpath] = tree

        # symbol table: simple name -> list of (relpath, def node) for every
        # top-level function and class (methods attach to their class)
        functions: dict[str, list] = {}
        classes: dict[str, list] = {}
        for relpath, tree in modules.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.setdefault(node.name, []).append((relpath, node))
                elif isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, []).append((relpath, node))

        # seed the worklist and walk the conservative call graph: any Name
        # matching a known function/class anywhere in a reachable body counts
        worklist = [
            (relpath, node)
            for seed in ctx.config["worker_seeds"]
            for relpath, node in functions.get(seed, [])
        ]
        seen = {(relpath, node.name) for relpath, node in worklist}
        reachable = []
        while worklist:
            relpath, fn = worklist.pop()
            reachable.append((relpath, fn))
            for sub in ast.walk(fn):
                referenced = None
                if isinstance(sub, ast.Name):
                    referenced = sub.id
                elif isinstance(sub, ast.Attribute):
                    referenced = sub.attr
                if referenced is None:
                    continue
                for target_path, target in functions.get(referenced, []):
                    if (target_path, target.name) not in seen:
                        seen.add((target_path, target.name))
                        worklist.append((target_path, target))
                for target_path, cls in classes.get(referenced, []):
                    for method in cls.body:
                        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            tag = (target_path, f"{cls.name}.{method.name}")
                            if tag not in seen:
                                seen.add(tag)
                                worklist.append((target_path, method))

        findings = []
        for relpath, fn in reachable:
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Global):
                    findings.append(
                        self.finding(
                            ctx, relpath, sub,
                            f"{fn.name}() runs worker-side (reachable from "
                            f"{'/'.join(ctx.config['worker_seeds'])}) and rebinds "
                            f"module global(s) {', '.join(sub.names)}; decode threads "
                            "run it concurrently, so the rebind is a data race — "
                            "return the value, or acknowledge a rebind only the "
                            "coordinator executes with a pragma",
                        )
                    )
        return findings


class ContractEnvDocs(Rule):
    """``REPRO_*`` knobs read in src/ and the docs catalogue agree both ways.

    The env catalogue is the public surface multi-host operators configure
    with; an undocumented knob is a behaviour switch nobody can discover.
    The rule extracts literal env names from every read site under the
    configured source paths and requires each to appear verbatim in some
    markdown file under the docs trees.  In reverse, every knob named in a
    docs table row must be read somewhere under the source paths or the
    benchmark harness: a row for a knob nothing reads documents a switch
    that does nothing.
    """

    #: read sites outside the source paths that keep a documented knob alive
    #: (the benchmark harness reads its own REPRO_*_BENCH_* scaling knobs)
    extra_read_paths = ("benchmarks",)

    name = "contract-env-docs"
    scope = "repo"
    description = (
        "every REPRO_* env knob read in src/ appears in the docs catalogue,"
        " and every knob in a docs table row is read"
    )

    def check_repo(self, ctx: LintContext) -> list:
        """Cross-check literal REPRO_* read sites against the docs tree."""
        prefix = ctx.config["env_prefix"]
        knob = re.compile(rf"`({re.escape(prefix)}[A-Z0-9_]+)`")
        docs_text = ""
        rows = []  # (markdown file, line, knob) per knob named in a table row
        for docs_dir in ctx.config["docs"]:
            base = ctx.abs(docs_dir)
            if base.is_dir():
                for md in sorted(base.rglob("*.md")):
                    try:
                        text = md.read_text()
                    except OSError:
                        continue
                    docs_text += text
                    for lineno, line in enumerate(text.splitlines(), 1):
                        if line.lstrip().startswith("|"):
                            rows += [(md, lineno, k) for k in knob.findall(line)]
        findings = []
        must_document = set(ctx.expand_files(ctx.config["paths"]))
        readers = [*ctx.config["paths"], *self.extra_read_paths]
        read = set()
        for relpath in ctx.expand_files(readers):
            tree = ctx.tree(relpath)
            if tree is None:
                continue
            aliases = import_aliases(tree)
            for node, name in env_read_sites(tree, aliases):
                if not name or not name.startswith(prefix):
                    continue
                read.add(name)
                if relpath in must_document and name not in docs_text:
                    findings.append(
                        self.finding(
                            ctx, relpath, node,
                            f"env knob {name!r} is read here but appears nowhere "
                            "under docs/; add it to the catalogue "
                            "(docs/SWEEPS.md or docs/DECODERS.md)",
                        )
                    )
        for md, lineno, name in rows:
            if name not in read:
                findings.append(
                    self.finding(
                        ctx, md, lineno,
                        f"env knob {name!r} is documented here but nothing under "
                        f"{', '.join(readers)} reads it; drop the stale row or "
                        "wire the knob up",
                    )
                )
        return findings
