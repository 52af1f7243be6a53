"""Rule interface and shared lint context.

Rules come in two scopes:

* ``file`` — checked once per linted ``*.py`` file (the determinism and
  hygiene families); they see one AST at a time.
* ``repo`` — checked once per invocation against fixed repo-relative
  paths (the contract and salt-drift families); they cross-reference
  several files (registry module vs. test suite vs. docs) regardless of
  which paths the user passed.

The :class:`LintContext` carries the repo root, the effective
configuration (``[tool.repro.lint]`` in ``pyproject.toml``; see
:data:`DEFAULT_CONFIG` for the keys and their defaults) and a per-file
cache of sources, ASTs and suppression pragmas shared by every rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .findings import Finding, parse_pragmas

__all__ = ["Rule", "LintContext", "DEFAULT_CONFIG", "load_config", "find_root"]

#: effective defaults; ``[tool.repro.lint]`` in pyproject.toml overrides
#: per key (hyphenated TOML keys map to these underscored names).  The
#: repo pins the full rule set there so the CI gate is explicit about
#: what it enforces.
DEFAULT_CONFIG: dict = {
    # rule names the gate runs when --only is not given; None = all registered
    "enable": None,
    # default lint targets for file-scope rules
    "paths": ["src/repro"],
    # the decode path: modules whose results are stored/merged and must be
    # bit-deterministic.  Prefix match on repo-relative POSIX paths.
    "decode_path": [
        "src/repro/decoders",
        "src/repro/store",
        "src/repro/experiments/sweeps.py",
        "src/repro/experiments/ler.py",
        "src/repro/experiments/parallel.py",
    ],
    # prediction-affecting modules tracked by the salt-drift lock (globs)
    "salt_modules": [
        "src/repro/decoders/**/*.py",
        "src/repro/decoders/**/*.c",
        "src/repro/store/keys.py",
        "src/repro/stab/sampler.py",
        "src/repro/stab/dem.py",
    ],
    # committed manifest of per-module AST digests + the salt they were
    # locked under (repro lint --update-lock refreshes it)
    "lock": "src/repro/analysis/decode_path.lock",
    # where STORE_SALT is defined (read statically, never imported)
    "salt_module": "src/repro/store/keys.py",
    # documentation tree every REPRO_* env knob must appear in
    "docs": ["docs"],
    # env knob namespace the decode path may read
    "env_prefix": "REPRO_",
    # decoder-name registry and the parity-test file that must cover it
    "builders_module": "src/repro/experiments/ler.py",
    "parity_tests": "tests/test_kernels.py",
    # worker-side entry points; functions reachable from these must not
    # rebind module globals (a data race between decode threads)
    "worker_modules": [
        "src/repro/experiments/parallel.py",
        "src/repro/experiments/ler.py",
    ],
    "worker_seeds": ["submit_task"],
}


def find_root(start: Path | None = None) -> Path:
    """Nearest ancestor of ``start`` (default: cwd) holding a pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    if here.is_file():
        here = here.parent
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def load_config(root: Path) -> dict:
    """Defaults overlaid with ``[tool.repro.lint]`` from the root pyproject."""
    config = {k: (list(v) if isinstance(v, list) else v) for k, v in DEFAULT_CONFIG.items()}
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - py3.10 without tomli
        return config
    try:
        with open(pyproject, "rb") as f:
            data = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError):
        return config
    section = data.get("tool", {}).get("repro", {}).get("lint", {})
    for key, value in section.items():
        config[key.replace("-", "_")] = value
    return config


class LintContext:
    """Repo root + config + a per-file cache shared by all rules."""

    def __init__(self, root: Path, config: dict | None = None):
        self.root = Path(root).resolve()
        self.config = config if config is not None else load_config(self.root)
        self._sources: dict[str, str | None] = {}
        self._trees: dict[str, ast.AST | None] = {}
        self._pragmas: dict[str, dict[int, set]] = {}

    # -- path helpers -------------------------------------------------
    def rel(self, path: Path | str) -> str:
        """Repo-relative POSIX form (identity for already-relative paths)."""
        p = Path(path)
        if p.is_absolute():
            try:
                p = p.relative_to(self.root)
            except ValueError:
                pass
        return p.as_posix()

    def abs(self, relpath: str) -> Path:
        """Absolute path of a repo-relative one."""
        return self.root / relpath

    def exists(self, relpath: str) -> bool:
        """Whether the repo-relative path is a file."""
        return self.abs(relpath).is_file()

    def in_decode_path(self, relpath: str) -> bool:
        """Whether the file falls under a configured ``decode_path`` entry."""
        rel = self.rel(relpath)
        for entry in self.config["decode_path"]:
            if rel == entry or rel.startswith(entry.rstrip("/") + "/"):
                return True
        return False

    def expand_files(self, paths) -> list[str]:
        """Flatten files/dirs/globs into sorted repo-relative paths.

        A directory contributes its ``*.py`` files; a file or glob matches as
        given (the salt-drift lock tracks the C kernel source this way).
        """
        out: set = set()
        for path in paths:
            p = Path(path)
            if not p.is_absolute():
                p = self.root / p
            if p.is_dir():
                out.update(self.rel(f) for f in p.rglob("*.py"))
            elif p.is_file():
                out.add(self.rel(p))
            else:
                out.update(self.rel(f) for f in self.root.glob(str(path)))
        return sorted(out)

    # -- cached file access -------------------------------------------
    def source(self, relpath: str) -> str | None:
        """Cached file text, or None when unreadable."""
        rel = self.rel(relpath)
        if rel not in self._sources:
            try:
                self._sources[rel] = self.abs(rel).read_text()
            except OSError:
                self._sources[rel] = None
        return self._sources[rel]

    def tree(self, relpath: str) -> ast.AST | None:
        """Cached parsed AST, or None when unreadable/unparsable."""
        rel = self.rel(relpath)
        if rel not in self._trees:
            src = self.source(rel)
            try:
                self._trees[rel] = None if src is None else ast.parse(src)
            except SyntaxError:
                self._trees[rel] = None
        return self._trees[rel]

    def pragmas(self, relpath: str) -> dict[int, set]:
        """Cached line -> suppressed-rule-names map for the file."""
        rel = self.rel(relpath)
        if rel not in self._pragmas:
            src = self.source(rel)
            self._pragmas[rel] = parse_pragmas(src) if src else {}
        return self._pragmas[rel]

    def suppressed(self, finding: Finding) -> bool:
        """Whether an inline pragma acknowledges this finding."""
        return finding.rule in self.pragmas(finding.path).get(finding.line, set())


class Rule:
    """One named static check; subclasses implement one ``check_*`` hook."""

    name: str = ""
    severity: str = "error"
    scope: str = "file"  # "file" or "repo"
    description: str = ""

    def finding(self, ctx: LintContext, path, node_or_line, message: str) -> Finding:
        """Build a finding anchored to an AST node (or a bare line number)."""
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        return Finding(
            path=ctx.rel(path),
            line=line,
            col=col,
            rule=self.name,
            severity=self.severity,
            message=message,
        )

    def check_file(self, ctx: LintContext, relpath: str) -> list:
        """Findings for one file (file-scope rules override this)."""
        return []

    def check_repo(self, ctx: LintContext) -> list:
        """Findings for the repo (repo-scope rules override this)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rule {self.name!r} ({self.scope}, {self.severity})>"
