"""Salt-drift rule: decode-path edits must be visible in the store salt.

``STORE_SALT`` (``repro.store.keys``) is the code-version component of
every store key: bumping it retires all stored numbers at once.  The
danger is the *forgotten* bump — a prediction-affecting edit to a decoder
that leaves old records matching new code, silently merging results from
two different decoders into one estimate.

This module maintains a committed lock file (``decode_path.lock`` next to
this package) mapping each prediction-affecting module to a digest of its
*code* — comments, docstrings and blank lines are stripped before hashing,
so documentation edits never trigger it, and the text-based normalization
is identical across Python versions (an ``ast.dump`` digest would not be:
the AST grammar grows fields between minor versions).  Tracked non-Python
sources (the C union-find kernel) get a plain digest of their full text.

Workflow when the rule fires:

* predictions changed -> bump ``STORE_SALT``, then ``repro lint
  --update-lock``;
* the edit is provably prediction-neutral (a rename, an error-message
  tweak) -> ``repro lint --update-lock`` alone; the lock diff in the PR is
  the reviewable attestation.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import tokenize

from .astutil import literal_str
from .base import LintContext, Rule

__all__ = ["SaltDrift", "module_digest", "read_lock", "update_lock", "current_salt"]


def module_digest(source: str, path: str = "") -> str:
    """sha256 over the module's code with comments/docstrings/blanks removed.

    Purely text-based (tokenize only locates comment spans), so the digest
    of identical source is identical on every supported Python version.
    A ``path`` naming a non-Python file (e.g. ``uf.c``, which tokenize
    cannot parse) is hashed as plain text, comments and all.
    """
    if path and not path.endswith(".py"):
        return hashlib.sha256(source.encode()).hexdigest()
    doc_lines: set = set()
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # unparsable code still gets a stable digest so drift is detected
        tree = None
    if tree is not None:
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and literal_str(body[0].value) is not None
                ):
                    doc_lines.update(
                        range(body[0].lineno, (body[0].end_lineno or body[0].lineno) + 1)
                    )
    comment_cols: dict[int, int] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                line, col = tok.start
                comment_cols[line] = min(col, comment_cols.get(line, 1 << 30))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    kept = []
    for lineno, line in enumerate(source.splitlines(), 1):
        if lineno in doc_lines:
            continue
        if lineno in comment_cols:
            line = line[: comment_cols[lineno]]
        line = line.rstrip()
        if line:
            kept.append(line)
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def current_salt(ctx: LintContext) -> tuple[str | None, int]:
    """``(STORE_SALT value, line number)`` read statically from the salt module."""
    tree = ctx.tree(ctx.config["salt_module"])
    if tree is None:
        return None, 1
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "STORE_SALT":
                    return literal_str(node.value), node.lineno
    return None, 1


def _tracked_modules(ctx: LintContext) -> list[str]:
    return ctx.expand_files(ctx.config["salt_modules"])


def read_lock(ctx: LintContext) -> dict | None:
    """The parsed lock file, or None when missing/unreadable/malformed."""
    path = ctx.abs(ctx.config["lock"])
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "modules" not in data:
        return None
    return data


def update_lock(ctx: LintContext) -> str:
    """Rewrite the lock from the tree's current salt + digests; returns the path."""
    salt, _ = current_salt(ctx)
    lock = {
        "_comment": (
            "AST-digest manifest of the prediction-affecting decode-path "
            "modules, locked under the STORE_SALT below.  Maintained by "
            "`repro lint --update-lock`; checked by the salt-drift rule "
            "(docs/ANALYSIS.md).  Never edit by hand."
        ),
        "salt": salt,
        "modules": {
            rel: module_digest(ctx.source(rel) or "", rel) for rel in _tracked_modules(ctx)
        },
    }
    path = ctx.abs(ctx.config["lock"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n")
    return ctx.rel(path)


class SaltDrift(Rule):
    """Decode-path code drift without a matching ``STORE_SALT`` bump."""

    name = "salt-drift"
    scope = "repo"
    description = (
        "prediction-affecting modules changed without a STORE_SALT bump "
        "(digest lock: src/repro/analysis/decode_path.lock)"
    )

    def check_repo(self, ctx: LintContext) -> list:
        """Compare tracked-module digests and the salt against the lock."""
        lock_rel = ctx.config["lock"]
        lock = read_lock(ctx)
        if lock is None:
            return [
                self.finding(
                    ctx, lock_rel, 1,
                    "decode-path digest lock is missing or unreadable; run "
                    "`repro lint --update-lock` and commit the result",
                )
            ]
        salt, salt_line = current_salt(ctx)
        findings = []
        if salt is None:
            findings.append(
                self.finding(
                    ctx, ctx.config["salt_module"], salt_line,
                    "no literal STORE_SALT assignment found; the salt-drift "
                    "contract needs a statically readable salt",
                )
            )
        elif lock.get("salt") != salt:
            findings.append(
                self.finding(
                    ctx, lock_rel, 1,
                    f"lock was written under salt {lock.get('salt')!r} but the "
                    f"tree defines {salt!r}; run `repro lint --update-lock` to "
                    "re-lock the decode path under the new salt",
                )
            )
            # the salt was bumped: drifted digests below are expected and
            # would only repeat the same instruction
            return findings
        locked = lock.get("modules", {})
        tracked = _tracked_modules(ctx)
        for rel in tracked:
            digest = module_digest(ctx.source(rel) or "", rel)
            if rel not in locked:
                findings.append(
                    self.finding(
                        ctx, rel, 1,
                        "prediction-affecting module is not in the decode-path "
                        "lock; run `repro lint --update-lock`",
                    )
                )
            elif locked[rel] != digest:
                findings.append(
                    self.finding(
                        ctx, rel, 1,
                        "code changed but STORE_SALT did not: stored records from "
                        "the old code still match new keys.  If predictions can "
                        "change, bump STORE_SALT (src/repro/store/keys.py) and run "
                        "`repro lint --update-lock`; if provably prediction-"
                        "neutral, `--update-lock` alone records the attestation",
                    )
                )
        for rel in sorted(set(locked) - set(tracked)):
            findings.append(
                self.finding(
                    ctx, lock_rel, 1,
                    f"lock entry {rel!r} no longer matches a tracked module; run "
                    "`repro lint --update-lock`",
                )
            )
        return findings
