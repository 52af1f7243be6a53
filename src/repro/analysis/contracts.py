"""Cross-module contract rules (repo scope).

These rules hold *pairs* of artifacts in contract: the decoder registry
vs. the backend-parity test matrix, the kernel-backend registry vs. its
availability/fallback protocol, worker-side code vs. the no-global-
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
    "ContractBackendRegistry",
    "ContractWorkerGlobals",
    "ContractEnvDocs",
    "ContractFigureRegistry",
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

    The backend-parity matrix in ``tests/test_kernels.py`` is the gate
    that keeps every kernel backend bit-identical to the scalar pass for
    every decoder family; a decoder registered without a parity case is a
    decoder whose kernels can silently drift.  The rule requires each
    registry key to appear as a string literal inside some
    ``pytest.mark.parametrize(...)`` call of the test file.
    """

    name = "contract-parity-tests"
    scope = "repo"
    description = "every DECODER_BUILDERS entry has a backend-parity case in tests/test_kernels.py"

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
                        "add it to the backend-parity matrix before registering",
                    )
                )
        return findings


class ContractBackendRegistry(Rule):
    """Every kernel backend honours the availability/fallback protocol.

    A backend declaring a soft dependency (``fallback`` set) must define
    its own ``available()`` — inheriting the base's unconditional ``True``
    would make the fallback chain dead code and the degradation warning a
    lie.  A backend without a fallback must be the terminal ``python``
    reference; anything else strands ``resolve()`` when its dependency is
    missing.  Every backend also needs its own non-empty ``name``.
    """

    name = "contract-backend-registry"
    scope = "repo"
    description = "kernel backends define available()/fallback per the registry protocol"

    #: the always-available scalar reference — the one legal chain terminal
    TERMINAL = "python"

    def check_repo(self, ctx: LintContext) -> list:
        """Check every backend class for the name/available/fallback protocol."""
        path = ctx.config["backends_module"]
        tree = ctx.tree(path)
        if tree is None:
            return [self.finding(ctx, path, 1, "cannot parse the backend registry module")]
        classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

        def in_lineage(cls: ast.ClassDef) -> bool:
            for base in cls.bases:
                base_name = dotted_name(base) or ""
                tail = base_name.rsplit(".", 1)[-1]
                if tail == "KernelBackend":
                    return True
                if tail in classes and in_lineage(classes[tail]):
                    return True
            return False

        def own_and_inherited(cls: ast.ClassDef, want_attr: str, *, methods: bool):
            """The class (self or in-file ancestor) body node defining an attr."""
            for node in cls.body:
                if methods and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name == want_attr:
                        return node
                if not methods and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for t in targets:
                        if isinstance(t, ast.Name) and t.id == want_attr:
                            return node
            for base in cls.bases:
                tail = (dotted_name(base) or "").rsplit(".", 1)[-1]
                if tail in classes:
                    found = own_and_inherited(classes[tail], want_attr, methods=methods)
                    if found is not None:
                        return found
            return None

        findings = []
        for cls in classes.values():
            if not in_lineage(cls):
                continue
            name_node = own_and_inherited(cls, "name", methods=False)
            backend_name = None
            if name_node is not None:
                backend_name = literal_str(name_node.value)
            if not backend_name:
                findings.append(
                    self.finding(
                        ctx, path, cls,
                        f"backend class {cls.name} has no literal non-empty `name`; "
                        "the registry keys on it",
                    )
                )
                continue
            fallback_node = own_and_inherited(cls, "fallback", methods=False)
            available_node = own_and_inherited(cls, "available", methods=True)
            if fallback_node is None and backend_name != self.TERMINAL:
                findings.append(
                    self.finding(
                        ctx, path, cls,
                        f"backend {backend_name!r} declares no `fallback`; every "
                        f"non-{self.TERMINAL!r} backend must name where resolve() "
                        "degrades to when its dependency is missing",
                    )
                )
            if fallback_node is not None and available_node is None:
                findings.append(
                    self.finding(
                        ctx, path, cls,
                        f"backend {backend_name!r} sets `fallback` but never defines "
                        "available(); the base's unconditional True makes the "
                        "fallback chain unreachable",
                    )
                )
        return findings


class ContractWorkerGlobals(Rule):
    """Worker-side functions must not rebind module globals.

    Functions reachable from the pool entry point (``worker_seeds`` in
    the lint config, by default ``submit_task``, which reaches the task
    runner and the payload install it triggers) execute inside every pool
    worker *and* in the coordinator on the inline executor;
    a ``global`` rebind there is per-process state that silently diverges
    between the two, the classic source of "works serial, drifts pooled"
    bugs.  Reachability is a lightweight module-local call graph over the
    configured worker modules: named calls, names passed as arguments
    (``pool.submit(_run_task, ...)``), and methods of classes the
    reachable code instantiates.  Intentional per-process counters are
    acknowledged with ``# lint: ok[contract-worker-globals] reason``.
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
                            f"module global(s) {', '.join(sub.names)}; per-process "
                            "mutation diverges between pool workers and the "
                            "coordinator — return the value, or acknowledge a deliberate "
                            "per-process counter with a pragma",
                        )
                    )
        return findings


class ContractFigureRegistry(Rule):
    """The figure registry and the benchmark harness stay paired.

    Every ``FigureSpec(name="fig*"/"table*")`` registered in the figures
    module must be exercised by some ``benchmarks/test_fig*``/``test_table*``
    file (a spec nobody benchmarks is a paper figure with no regression
    gate), and every such benchmark file must reference at least one
    registered spec name (a figure benchmark that bypasses the registry is
    an ad-hoc one-off the shared export layer cannot see).  Spec names are
    read statically, so they must be string literals.
    """

    name = "contract-figure-registry"
    scope = "repo"
    description = "every registered fig*/table* spec has a benchmarks/ wrapper and vice versa"

    def check_repo(self, ctx: LintContext) -> list:
        """Cross-check FigureSpec names against the benchmark harness files."""
        figures_path = ctx.config["figures_module"]
        bench_dir = ctx.config["figures_benchmarks"]
        tree = ctx.tree(figures_path)
        if tree is None:
            return [self.finding(ctx, figures_path, 1, "cannot parse the figure registry module")]

        # registered spec names: FigureSpec(name="...") call sites
        spec_nodes: dict[str, ast.AST] = {}
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (dotted_name(node.func) or "").rsplit(".", 1)[-1] != "FigureSpec":
                continue
            name_kw = next((kw for kw in node.keywords if kw.arg == "name"), None)
            name_node = name_kw.value if name_kw is not None else (node.args[0] if node.args else None)
            if name_node is None:
                continue
            spec_name = literal_str(name_node)
            if spec_name is None:
                findings.append(
                    self.finding(
                        ctx, figures_path, name_node,
                        "FigureSpec name is not a string literal; registry names "
                        "must be static so benchmarks and this rule can reference them",
                    )
                )
            else:
                spec_nodes[spec_name] = name_node

        # benchmark harness files and the string literals they mention
        base = ctx.abs(bench_dir)
        bench_literals: dict[str, set] = {}
        if base.is_dir():
            for pattern in ("test_fig*.py", "test_table*.py"):
                for path in sorted(base.glob(pattern)):
                    rel = ctx.rel(path)
                    bench_tree = ctx.tree(rel)
                    literals: set = set()
                    if bench_tree is not None:
                        for sub in ast.walk(bench_tree):
                            value = literal_str(sub)
                            if value is not None:
                                literals.add(value)
                    bench_literals[rel] = literals

        all_literals = set().union(*bench_literals.values()) if bench_literals else set()
        for spec_name, node in sorted(spec_nodes.items()):
            if not spec_name.startswith(("fig", "table")):
                continue
            if spec_name not in all_literals:
                findings.append(
                    self.finding(
                        ctx, figures_path, node,
                        f"figure spec {spec_name!r} has no wrapper under "
                        f"{bench_dir}/test_fig*|test_table*; every registered "
                        "figure needs a benchmark regression gate",
                    )
                )
        for rel, literals in sorted(bench_literals.items()):
            if not literals & set(spec_nodes):
                findings.append(
                    self.finding(
                        ctx, rel, 1,
                        "figure benchmark references no registered FigureSpec "
                        f"name from {figures_path}; route it through the "
                        "registry (build_figure) instead of an ad-hoc one-off",
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
