"""Tests for the ``repro.analysis`` static-analysis subsystem.

Three layers:

* **fixture tests** — each determinism/hygiene rule against the marker
  files under ``tests/analysis_fixtures/`` (never imported, only parsed);
* **sandbox mutation tests** — copy the real ``src/`` + ``tests/
  test_kernels.py`` + ``docs/`` into a tmp repo, seed the exact defect a
  rule exists to catch, and assert the CLI exits nonzero with a
  ``file:line`` finding.  These are the issue's acceptance criteria.
* **gate tests** — the shipped tree itself lints clean, so the CI gate
  (``scripts/check_lint.py``) is green with an empty baseline.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import analysis, cli
from repro.analysis import (
    Finding,
    LintContext,
    module_digest,
    run_lint,
)
from repro.analysis.saltdrift import current_salt, read_lock

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

#: the file-scope rules exercised by the marker fixtures
FILE_RULES = [
    "determinism-time",
    "determinism-rng",
    "determinism-entropy",
    "determinism-id",
    "determinism-set-order",
    "determinism-env",
    "hygiene-mutable-default",
    "hygiene-bare-except",
]

#: config override making the fixture dir count as decode path
FIXTURE_SCOPE = {"decode_path": ["tests/analysis_fixtures"]}


def marker_map(path: Path) -> dict:
    """rule -> set of line numbers, from ``# HIT <rule>`` markers."""
    hits: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        m = re.search(r"# HIT ([a-z][a-z0-9-]*)", line)
        if m:
            hits.setdefault(m.group(1), set()).add(lineno)
    return hits


# ---------------------------------------------------------------- registry


def test_registry_names_and_available():
    names = analysis.names()
    assert names == sorted(names)
    assert len(names) == 12
    assert analysis.available() == names
    for family in ("determinism-time", "contract-parity-tests", "salt-drift"):
        assert family in names


def test_registry_rejects_duplicates_and_unknowns():
    class Clash(analysis.Rule):
        name = "determinism-time"

    with pytest.raises(ValueError, match="already registered"):
        analysis.register(Clash())
    with pytest.raises(ValueError, match="non-empty name"):
        analysis.register(analysis.Rule())
    with pytest.raises(KeyError, match="registered"):
        analysis.get("no-such-rule")


def test_registry_replace_flag_swaps_rule():
    original = analysis.get("hygiene-bare-except")

    class Stand_in(analysis.Rule):
        name = "hygiene-bare-except"

    try:
        swapped = analysis.register(Stand_in(), replace=True)
        assert analysis.get("hygiene-bare-except") is swapped
    finally:
        analysis.register(original, replace=True)


def test_run_lint_unknown_only_raises_keyerror():
    with pytest.raises(KeyError, match="registered"):
        run_lint(root=REPO, only=["nope"])


# ------------------------------------------------------- fixture rule tests


def test_dirty_fixture_findings_match_markers():
    report = run_lint(
        ["tests/analysis_fixtures/dirty_decode.py"],
        root=REPO,
        only=FILE_RULES,
        config=FIXTURE_SCOPE,
    )
    got: dict = {}
    for f in report.findings:
        got.setdefault(f.rule, set()).add(f.line)
    assert got == marker_map(FIXTURES / "dirty_decode.py")
    # hygiene rules warn, determinism rules error
    severities = {f.rule: f.severity for f in report.findings}
    assert severities["determinism-time"] == "error"
    assert severities["hygiene-mutable-default"] == "warning"


def test_clean_fixture_is_silent_with_one_pragma():
    report = run_lint(
        ["tests/analysis_fixtures/clean_decode.py"],
        root=REPO,
        only=FILE_RULES,
        config=FIXTURE_SCOPE,
    )
    assert report.findings == []
    assert report.suppressed == 1  # the acknowledged wall-clock stamp


def test_determinism_rules_ignore_files_outside_decode_path():
    # same dirty file, default decode-path scope: nothing under
    # tests/analysis_fixtures is in the decode path, so only the
    # repo-wide hygiene rules may fire
    report = run_lint(
        ["tests/analysis_fixtures/dirty_decode.py"],
        root=REPO,
        only=FILE_RULES,
    )
    assert {f.rule for f in report.findings} == {
        "hygiene-mutable-default",
        "hygiene-bare-except",
    }


# ------------------------------------------------------------ findings API


def test_finding_format_and_roundtrip():
    f = Finding(path="a/b.py", line=7, col=3, rule="determinism-id", severity="error", message="m")
    assert f.format() == "a/b.py:7:3: determinism-id [error] m"
    assert Finding.from_dict(f.to_dict()) == f
    assert f.baseline_key() == ("determinism-id", "a/b.py", "m")


def test_findings_sort_by_location():
    a = Finding(path="a.py", line=2, col=0, rule="r", severity="error", message="m")
    b = Finding(path="a.py", line=10, col=0, rule="r", severity="error", message="m")
    c = Finding(path="b.py", line=1, col=0, rule="r", severity="error", message="m")
    assert sorted([c, b, a]) == [a, b, c]


# ------------------------------------------------------------ salt digests


def test_module_digest_ignores_comments_docstrings_blanks():
    base = 'def f(x):\n    """doc."""\n    return x + 1  # note\n'
    d0 = module_digest(base)
    assert module_digest(base.replace("doc.", "rewritten docstring")) == d0
    assert module_digest(base.replace("# note", "# different note")) == d0
    assert module_digest("\n" + base + "\n\n") == d0
    assert module_digest(base.replace("x + 1", "x + 2")) != d0


def test_committed_lock_matches_tree():
    ctx = LintContext(REPO)
    lock = read_lock(ctx)
    assert lock is not None
    salt, _ = current_salt(ctx)
    assert lock["salt"] == salt
    for rel, digest in lock["modules"].items():
        assert module_digest(ctx.source(rel), rel) == digest, rel
    # the C kernel source is tracked too
    assert "src/repro/decoders/kernels/uf.c" in lock["modules"]


def test_module_digest_hashes_non_python_sources_as_text():
    c_source = "int f(int x) { return x + 1; } /* note */\n"
    d0 = module_digest(c_source, "kernels/uf.c")
    assert d0 != module_digest(c_source.replace("x + 1", "x + 2"), "kernels/uf.c")
    # not the Python normalization: tokenize cannot parse C
    assert d0 != module_digest(c_source)


# --------------------------------------------------------------- sandboxes


def make_sandbox(tmp_path: Path) -> Path:
    """Copy the lint-relevant slice of the repo into a tmp root."""
    box = tmp_path / "box"
    (box / "tests").mkdir(parents=True)
    (box / "benchmarks").mkdir()
    shutil.copytree(
        REPO / "src", box / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copytree(REPO / "docs", box / "docs")
    shutil.copy2(REPO / "tests" / "test_kernels.py", box / "tests" / "test_kernels.py")
    # the env-docs contract counts the benchmark harness's knob reads
    for bench in (REPO / "benchmarks").glob("*.py"):
        shutil.copy2(bench, box / "benchmarks" / bench.name)
    shutil.copy2(REPO / "pyproject.toml", box / "pyproject.toml")
    return box


def test_sandbox_copy_lints_clean(tmp_path):
    report = run_lint(root=make_sandbox(tmp_path))
    assert report.findings == []


def test_mutation_wallclock_in_store_keys_fails(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    keys = box / "src" / "repro" / "store" / "keys.py"
    keys.write_text(
        keys.read_text() + "\n\ndef _now():\n    import time\n    return time.time()\n"
    )
    assert cli.main(["lint", "--root", str(box)]) == 1
    out = capsys.readouterr().out
    hit = keys.read_text().splitlines().index("    return time.time()") + 1
    assert f"src/repro/store/keys.py:{hit}:" in out
    assert "determinism-time" in out
    # keys.py is salt-tracked, so the drift rule fires too
    assert "salt-drift" in out


def test_mutation_decoder_edit_without_salt_bump_fails(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    wrappers = box / "src" / "repro" / "decoders" / "kernels" / "batched_wrappers.py"
    wrappers.write_text(wrappers.read_text() + "\nMWPM_ROW_CACHE_LIMIT = 4096\n")
    assert cli.main(["lint", "--root", str(box)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/decoders/kernels/batched_wrappers.py:1:" in out
    assert "salt-drift" in out and "STORE_SALT" in out


def test_mutation_c_kernel_edit_without_salt_bump_fails(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    uf = box / "src" / "repro" / "decoders" / "kernels" / "uf.c"
    src = uf.read_text()
    needle = "if (ed->growth >= ed->w)"
    assert needle in src
    uf.write_text(src.replace(needle, "if (ed->growth > ed->w)"))
    assert cli.main(["lint", "--root", str(box)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/decoders/kernels/uf.c:1:" in out
    assert "salt-drift" in out and "STORE_SALT" in out


def test_comment_only_decoder_edit_stays_clean(tmp_path):
    box = make_sandbox(tmp_path)
    uf = box / "src" / "repro" / "decoders" / "unionfind.py"
    uf.write_text(uf.read_text() + "\n# prose-only edit: no digest change\n")
    assert cli.main(["lint", "--root", str(box)]) == 0


def test_mutation_dropped_parity_case_fails(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    tk = box / "tests" / "test_kernels.py"
    src = tk.read_text()
    needle = '["unionfind", "mwpm"]'
    assert needle in src
    tk.write_text(src.replace(needle, '["unionfind"]'))
    assert cli.main(["lint", "--root", str(box)]) == 1
    out = capsys.readouterr().out
    assert "contract-parity-tests" in out and "mwpm" in out
    assert re.search(r"src/repro/experiments/ler\.py:\d+:", out)


def test_mutation_salt_bump_then_update_lock_workflow(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    keys = box / "src" / "repro" / "store" / "keys.py"
    src = keys.read_text()
    assert '"repro-store-v2"' in src
    keys.write_text(src.replace('"repro-store-v2"', '"repro-store-v3"'))
    # bumped salt without re-locking: the rule names both salts
    assert cli.main(["lint", "--root", str(box)]) == 1
    out = capsys.readouterr().out
    assert "repro-store-v2" in out and "repro-store-v3" in out
    # the blessing workflow clears it
    assert cli.main(["lint", "--root", str(box), "--update-lock"]) == 0
    lock = json.loads((box / "src/repro/analysis/decode_path.lock").read_text())
    assert lock["salt"] == "repro-store-v3"


def test_mutation_worker_global_rebind_fails(tmp_path):
    box = make_sandbox(tmp_path)
    par = box / "src" / "repro" / "experiments" / "parallel.py"
    src = par.read_text()
    needle = "def _run_task(task: SweepTask) -> LerResult:\n"
    assert needle in src
    par.write_text(
        src.replace(needle, needle + "    global _WORKER_PROBE\n    _WORKER_PROBE = 1\n")
    )
    report = run_lint(root=box, only=["contract-worker-globals"])
    assert any(
        f.path == "src/repro/experiments/parallel.py"
        and "_run_task" in f.message
        and "_WORKER_PROBE" in f.message
        for f in report.findings
    )


def test_mutation_worker_global_rebind_in_run_surgery_ler_fails(tmp_path):
    # run_surgery_ler (ler.py) is reached from submit_task only through the
    # task runner in parallel.py, so the single default seed must follow
    # the call graph across modules to cover it
    box = make_sandbox(tmp_path)
    ler = box / "src" / "repro" / "experiments" / "ler.py"
    src = ler.read_text()
    needle = "    if decode_workers != 1:\n"
    assert src.count(needle) == 1
    ler.write_text(
        src.replace(needle, "    global _LER_PROBE\n    _LER_PROBE = 1\n" + needle)
    )
    report = run_lint(root=box, only=["contract-worker-globals"])
    assert any(
        f.path == "src/repro/experiments/ler.py"
        and "run_surgery_ler" in f.message
        and "_LER_PROBE" in f.message
        for f in report.findings
    )


def test_mutation_undocumented_env_knob_fails(tmp_path):
    box = make_sandbox(tmp_path)
    ler = box / "src" / "repro" / "experiments" / "ler.py"
    ler.write_text(
        ler.read_text() + '\nUNDOC_PROBE = os.environ.get("REPRO_UNDOCUMENTED_PROBE")\n'
    )
    report = run_lint(root=box, only=["contract-env-docs"])
    assert any("REPRO_UNDOCUMENTED_PROBE" in f.message for f in report.findings)


def test_mutation_documented_but_unread_env_knob_fails(tmp_path):
    box = make_sandbox(tmp_path)
    sweeps = box / "docs" / "SWEEPS.md"
    lines = sweeps.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("| `REPRO_"))
    lines.insert(row, "| `REPRO_UNREAD_PROBE` | `0` | a knob nothing reads |")
    sweeps.write_text("\n".join(lines) + "\n")
    report = run_lint(root=box, only=["contract-env-docs"])
    assert [(f.path, f.line) for f in report.findings] == [("docs/SWEEPS.md", row + 1)]
    assert "REPRO_UNREAD_PROBE" in report.findings[0].message


def test_baseline_silences_known_findings(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    keys = box / "src" / "repro" / "store" / "keys.py"
    keys.write_text(
        keys.read_text() + "\n\ndef _now():\n    import time\n    return time.time()\n"
    )
    dirty = run_lint(root=box)
    assert dirty.findings
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(dirty.to_dict()))
    again = run_lint(root=box, baseline=baseline)
    assert again.findings == []
    assert again.baselined == len(dirty.findings)
    # and through the CLI flag
    assert cli.main(["lint", "--root", str(box), "--baseline", str(baseline)]) == 0
    capsys.readouterr()


def test_lint_json_format_is_machine_readable(tmp_path, capsys):
    box = make_sandbox(tmp_path)
    uf = box / "src" / "repro" / "decoders" / "unionfind.py"
    uf.write_text(uf.read_text() + "\nUNIONFIND_PROBE_LIMIT = 4096\n")
    assert cli.main(["lint", "--root", str(box), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["findings"] and data["findings"][0]["rule"] == "salt-drift"
    assert {"path", "line", "col", "rule", "severity", "message"} <= set(
        data["findings"][0]
    )


# -------------------------------------------------------------- the gate


def test_shipped_tree_lints_clean():
    report = run_lint(root=REPO)
    assert [f.format() for f in report.findings] == []


def test_check_lint_gate_exits_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_lint.py")],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
