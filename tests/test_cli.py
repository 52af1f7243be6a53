"""CLI smoke tests."""

import json
from pathlib import Path

import pytest

from repro import cli


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------


@pytest.fixture
def sweep_spec_file(tmp_path):
    spec = {
        "name": "cli-test",
        "hardware": "google",
        "distances": [2],
        "taus_ns": [500.0],
        "policies": ["passive"],
        "batch_shots": 800,
        "min_shots": 800,
        "max_shots": 800,
        "seed": 17,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_sweep_run_then_rerun_serves_from_store(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    assert cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert '"shots_decoded": 800' in out
    assert cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store), "--resume"]) == 0
    out = capsys.readouterr().out
    assert '"shots_decoded": 0' in out
    assert '"points_from_store": 1' in out
    assert "[store]" in out


def test_sweep_status_reports_point_states(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    assert cli.main(["sweep", "status", str(sweep_spec_file), "--store", str(store)]) == 0
    assert "missing" in capsys.readouterr().out
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)])
    capsys.readouterr()
    assert cli.main(["sweep", "status", str(sweep_spec_file), "--store", str(store)]) == 0
    assert "converged" in capsys.readouterr().out
    assert cli.main(["sweep", "status", "--store", str(store)]) == 0
    assert '"records": 1' in capsys.readouterr().out


def test_sweep_clear_requires_confirmation(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)])
    capsys.readouterr()
    assert cli.main(["sweep", "clear", "--store", str(store)]) == 1
    assert "pass --yes" in capsys.readouterr().out
    assert cli.main(["sweep", "clear", "--store", str(store), "--yes"]) == 0
    assert "removed 1 records" in capsys.readouterr().out


def test_sweep_run_overrides_spec_fields(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    assert (
        cli.main(
            [
                "sweep", "run", str(sweep_spec_file),
                "--store", str(store),
                "--max-shots", "1600",
                "--seed", "23",
            ]
        )
        == 0
    )
    assert '"shots_decoded": 1600' in capsys.readouterr().out


def test_sweep_export_writes_benchmark_rows(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    out_file = tmp_path / "rows.json"
    # exporting before running marks the point missing, decodes nothing
    assert cli.main(["sweep", "export", str(sweep_spec_file), "--store", str(store)]) == 0
    assert '"status": "missing"' in capsys.readouterr().out
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)])
    capsys.readouterr()
    assert (
        cli.main(
            ["sweep", "export", str(sweep_spec_file), "--store", str(store),
             "--out", str(out_file)]
        )
        == 0
    )
    rows = json.loads(out_file.read_text())
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["shots"] == 800
    assert len(rows[0]["ler"]) == len(rows[0]["failures"]) > 0


def test_sweep_gc_dry_run_then_prune(capsys, tmp_path, sweep_spec_file):
    store_dir = tmp_path / "store"
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store_dir)])
    capsys.readouterr()
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    key = store.keys()[0]
    store.put(key, dict(store.get(key), updated_at=1.0))  # very stale

    assert cli.main(
        ["sweep", "gc", "--older-than", "30", "--store", str(store_dir), "--dry-run"]
    ) == 0
    assert "would prune 1" in capsys.readouterr().out
    assert key in store

    assert cli.main(
        ["sweep", "gc", "--older-than", "30", "--store", str(store_dir)]
    ) == 0
    assert "pruned 1" in capsys.readouterr().out
    assert key not in store


def test_sweep_export_seed_override_matches_seeded_run(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store), "--seed", "99"])
    capsys.readouterr()
    # without the override the point keys don't match the seeded store
    assert cli.main(["sweep", "export", str(sweep_spec_file), "--store", str(store)]) == 0
    assert '"status": "missing"' in capsys.readouterr().out
    assert cli.main(
        ["sweep", "export", str(sweep_spec_file), "--store", str(store), "--seed", "99"]
    ) == 0
    assert '"status": "ok"' in capsys.readouterr().out


def test_sweep_run_spec_naming_a_backend_is_clean_error(capsys, tmp_path, sweep_spec_file):
    # the host picks the decode path: a spec file that still names a backend
    # fails the unknown-field check before anything is decoded or stored
    spec = json.loads(sweep_spec_file.read_text())
    sweep_spec_file.write_text(json.dumps({**spec, "backend": "python"}))
    rc = cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert (rc, "unknown SweepSpec field(s): backend" in err) == (2, True), err
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------------------
# sweep subcommand edge cases
# ---------------------------------------------------------------------------


def test_sweep_export_on_missing_store_marks_all_points_missing(
    capsys, tmp_path, sweep_spec_file
):
    # a store directory that was never created: export still exits 0 and
    # emits one "missing" row per grid point instead of crashing
    out_file = tmp_path / "rows.json"
    rc = cli.main(
        ["sweep", "export", str(sweep_spec_file),
         "--store", str(tmp_path / "never-created"), "--out", str(out_file)]
    )
    assert rc == 0
    rows = json.loads(out_file.read_text())
    assert [r["status"] for r in rows] == ["missing"]
    assert not (tmp_path / "never-created").exists()  # export created nothing


def test_sweep_export_partial_store_mixes_ok_and_missing(capsys, tmp_path):
    spec = {
        "name": "partial",
        "hardware": "google",
        "distances": [2],
        "taus_ns": [500.0],
        "policies": ["passive", "active"],
        "batch_shots": 400,
        "min_shots": 400,
        "max_shots": 400,
        "seed": 17,
    }
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps(dict(spec, policies=["passive"])))
    full = tmp_path / "full.json"
    full.write_text(json.dumps(spec))
    store = tmp_path / "store"
    assert cli.main(["sweep", "run", str(narrow), "--store", str(store)]) == 0
    capsys.readouterr()
    # exporting the wider spec over the narrower store: decoded point is
    # "ok" with real rows, the never-run one is "missing" without columns
    assert cli.main(["sweep", "export", str(full), "--store", str(store)]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_policy = {r["policy"]: r for r in rows}
    assert by_policy["passive"]["status"] == "ok"
    assert by_policy["passive"]["shots"] == 400
    assert by_policy["active"]["status"] == "missing"
    assert "shots" not in by_policy["active"]


def test_sweep_gc_dry_run_leaves_mtimes_untouched(capsys, tmp_path, sweep_spec_file):
    store_dir = tmp_path / "store"
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store_dir)])
    capsys.readouterr()
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    key = store.keys()[0]
    store.put(key, dict(store.get(key), updated_at=1.0))  # very stale
    path = store_dir / "points" / key[:2] / f"{key}.json"
    before = path.stat().st_mtime_ns

    assert cli.main(
        ["sweep", "gc", "--older-than", "30", "--store", str(store_dir), "--dry-run"]
    ) == 0
    assert "would prune 1" in capsys.readouterr().out
    assert path.stat().st_mtime_ns == before  # dry run read, never wrote
    assert key in store


def test_sweep_run_restart_and_resume_are_mutually_exclusive(
    capsys, tmp_path, sweep_spec_file
):
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(tmp_path / "s"),
         "--restart", "--resume"]
    )
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_sweep_run_speculate_matches_sequential_records(capsys, tmp_path, sweep_spec_file):
    from repro.store import ResultStore

    seq_store, spec_store = tmp_path / "seq", tmp_path / "spec"
    assert cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(seq_store)]
    ) == 0
    capsys.readouterr()
    assert cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(spec_store),
         "--workers", "2", "--speculate", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert '"speculate": 2' in out
    a, b = ResultStore(seq_store), ResultStore(spec_store)
    assert a.keys() == b.keys()
    for key in a.keys():
        ra, rb = a.get(key), b.get(key)
        assert ra["failures"] == rb["failures"]
        assert ra["shots"] == rb["shots"]


def test_sweep_run_rejects_negative_speculate(capsys, tmp_path, sweep_spec_file):
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(tmp_path / "s"),
         "--speculate", "-1"]
    )
    assert rc == 2
    assert "non-negative" in capsys.readouterr().err


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    import repro

    assert out.strip().endswith(repro.__version__)


def test_version_matches_pyproject():
    import tomllib

    import repro

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == repro.__version__


def test_lint_help_exits_clean(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lint", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--only", "--format", "--baseline", "--update-lock"):
        assert flag in out


def test_lint_unknown_rule_is_usage_error(capsys):
    assert cli.main(["lint", "--only", "no-such-rule", "src/repro"]) == 2
    err = capsys.readouterr().err
    assert "no-such-rule" in err and "determinism-time" in err


def test_lint_list_rules_prints_catalogue(capsys):
    assert cli.main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    from repro import analysis

    for name in analysis.names():
        assert name in out


# ---------------------------------------------------------------------------
# observability: sweep run --trace/--metrics-out, trace summarize, status -v
# ---------------------------------------------------------------------------


def test_sweep_run_writes_trace_and_metrics(capsys, tmp_path, sweep_spec_file):
    from repro import obs

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert (
        cli.main(
            [
                "sweep", "run", str(sweep_spec_file),
                "--store", str(tmp_path / "store"),
                "--trace", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "wrote trace" in out and "wrote metrics" in out
    # the CLI cleaned up after itself: tracing is off again
    assert not obs.enabled()

    doc = json.loads(trace.read_text())
    assert doc["schema"] == obs.TRACE_SCHEMA
    assert doc["traceEvents"]
    kinds = {ev["name"] for ev in doc["traceEvents"]}
    assert "ler.sample" in kinds and "store.commit" in kinds
    # every decoded batch runs the kernel over its distinct syndromes
    assert "decode.kernel" in kinds

    snap = obs.load_metrics(metrics)
    assert snap["histograms"]


def test_trace_summarize_prints_percentile_breakdown(capsys, tmp_path, sweep_spec_file):
    trace = tmp_path / "t.json"
    cli.main(
        [
            "sweep", "run", str(sweep_spec_file),
            "--store", str(tmp_path / "store"),
            "--trace", str(trace),
        ]
    )
    capsys.readouterr()
    assert cli.main(["trace", "summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    for column in ("span", "count", "total_s", "p50_us", "p95_us", "p99_us"):
        assert column in out
    assert "ler.sample" in out

    assert cli.main(["trace", "summarize", str(trace), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert any(r["name"] == "ler.sample" for r in rows)


def test_trace_summarize_missing_file_is_clean_error(capsys, tmp_path):
    assert cli.main(["trace", "summarize", str(tmp_path / "nope.json")]) == 2
    assert "cannot summarize" in capsys.readouterr().err


def test_sweep_run_trace_env_knob(capsys, tmp_path, sweep_spec_file, monkeypatch):
    trace = tmp_path / "env-trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    assert (
        cli.main(
            ["sweep", "run", str(sweep_spec_file), "--store", str(tmp_path / "store")]
        )
        == 0
    )
    assert json.loads(trace.read_text())["traceEvents"]


def test_sweep_run_tracing_is_bit_neutral(capsys, tmp_path, sweep_spec_file):
    from repro.experiments.sweeps import record_parity_view
    from repro.store import ResultStore

    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(tmp_path / "plain")])
    cli.main(
        [
            "sweep", "run", str(sweep_spec_file),
            "--store", str(tmp_path / "traced"),
            "--trace", str(tmp_path / "t.json"),
        ]
    )
    plain = ResultStore(tmp_path / "plain")
    traced = ResultStore(tmp_path / "traced")
    assert plain.keys() == traced.keys() and len(plain.keys()) > 0
    for key in plain.keys():
        assert record_parity_view(plain.get(key)) == record_parity_view(traced.get(key))


def test_sweep_status_verbose_reports_decode_stats(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)])
    capsys.readouterr()
    assert (
        cli.main(["sweep", "status", str(sweep_spec_file), "--store", str(store)]) == 0
    )
    terse = capsys.readouterr().out
    assert "decode_s=" not in terse
    assert (
        cli.main(
            ["sweep", "status", str(sweep_spec_file), "--store", str(store), "--verbose"]
        )
        == 0
    )
    verbose = capsys.readouterr().out
    assert "decode_s=" in verbose
    assert "distinct_ratio=" in verbose
    assert "cache_hit_rate=" not in verbose
    assert "shots_per_s=" in verbose
    # per-point progress from the commit-ahead batch log (converged points
    # report completion instead of an estimate)
    assert "progress:" in verbose
    assert "complete (" in verbose


# ---------------------------------------------------------------------------
# run ledger: sweep run mints a run id; runs list/show/gc; sweep watch
# ---------------------------------------------------------------------------


def _run_with_ledger(tmp_path, sweep_spec_file, capsys):
    store = tmp_path / "store"
    assert cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out[out.index("{") : out.rindex("}") + 1])
    assert summary["run_id"], "sweep run should mint a run id by default"
    assert f"run {summary['run_id']} recorded" in out
    assert "sweep watch" in out  # the follow-up hint names the watcher
    return store, summary["run_id"]


def test_sweep_run_records_run_and_runs_list_shows_it(capsys, tmp_path, sweep_spec_file):
    store, run_id = _run_with_ledger(tmp_path, sweep_spec_file, capsys)
    assert cli.main(["runs", "list", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert run_id in out and "cli-test" in out and "ok" in out

    assert cli.main(["runs", "list", "--store", str(store), "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["run_id"] == run_id
    assert row["status"] == "ok"
    assert row["points"] == 1
    assert row["shots_decoded"] == 800


def test_sweep_run_no_ledger_flag_opts_out(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(store), "--no-ledger"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert '"run_id": null' in out
    assert not (store / "runs").exists()
    assert cli.main(["runs", "list", "--store", str(store)]) == 0
    assert "no runs recorded" in capsys.readouterr().out


def test_runs_show_reports_manifest_and_event_counts(capsys, tmp_path, sweep_spec_file):
    store, run_id = _run_with_ledger(tmp_path, sweep_spec_file, capsys)
    assert cli.main(["runs", "show", "--latest", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert f"run {run_id}" in out and "status=ok" in out
    assert "spec_digest:" in out and "store_salt:" in out
    assert "run_start=1" in out and "run_finish=1" in out

    assert cli.main(
        ["runs", "show", run_id, "--store", str(store), "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["run_id"] == run_id
    assert doc["events"][0]["ev"] == "run_start"
    assert doc["events"][-1]["ev"] == "run_finish"


def test_runs_show_unknown_id_is_clean_error(capsys, tmp_path, sweep_spec_file):
    store, _ = _run_with_ledger(tmp_path, sweep_spec_file, capsys)
    assert cli.main(["runs", "show", "nope-123", "--store", str(store)]) == 2
    assert "unknown run id" in capsys.readouterr().err
    empty = tmp_path / "empty-store"
    assert cli.main(["runs", "show", "--latest", "--store", str(empty)]) == 2
    assert "no runs recorded" in capsys.readouterr().err


def test_sweep_watch_once_renders_final_frame(capsys, tmp_path, sweep_spec_file):
    store, run_id = _run_with_ledger(tmp_path, sweep_spec_file, capsys)
    assert cli.main(
        ["sweep", "watch", run_id, "--store", str(store), "--once"]
    ) == 0
    out = capsys.readouterr().out
    assert f"run {run_id}" in out and "status=ok" in out
    assert "converged" in out and "shots=800/800" in out
    assert "totals:" in out
    # --latest resolves the same run (a finished run exits without --once too)
    assert cli.main(["sweep", "watch", "--latest", "--store", str(store)]) == 0
    assert f"run {run_id}" in capsys.readouterr().out


def test_runs_gc_dry_run_then_prune(capsys, tmp_path, sweep_spec_file):
    store, run_id = _run_with_ledger(tmp_path, sweep_spec_file, capsys)
    assert cli.main(
        ["runs", "gc", "--older-than", "0", "--store", str(store), "--dry-run"]
    ) == 0
    assert "would prune 1 run(s)" in capsys.readouterr().out
    assert (store / "runs" / run_id).exists()
    assert cli.main(["runs", "gc", "--older-than", "0", "--store", str(store)]) == 0
    assert "pruned 1 run(s)" in capsys.readouterr().out
    assert not (store / "runs" / run_id).exists()
    # point records are provenance-independent: gc never touches them
    from repro.store import ResultStore

    assert len(ResultStore(store).keys()) == 1


def test_metrics_summarize_prints_counters_and_spans(capsys, tmp_path, sweep_spec_file):
    metrics = tmp_path / "m.json"
    cli.main(
        [
            "sweep", "run", str(sweep_spec_file),
            "--store", str(tmp_path / "store"),
            "--metrics-out", str(metrics),
        ]
    )
    capsys.readouterr()
    assert cli.main(["metrics", "summarize", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "counters:" in out
    assert "sweep.batches_applied" in out
    for column in ("span", "count", "total_s", "p50_us", "p99_us"):
        assert column in out

    assert cli.main(["metrics", "summarize", str(metrics), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counters"]["sweep.batches_applied"] >= 1
    assert any(r["count"] for r in doc["rows"])


def test_metrics_summarize_missing_file_is_clean_error(capsys, tmp_path):
    assert cli.main(["metrics", "summarize", str(tmp_path / "nope.json")]) == 2
    assert "cannot summarize" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep run --dry-run / --workers 0; sweep watch guards
# ---------------------------------------------------------------------------


def test_sweep_run_dry_run_decodes_nothing(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(store), "--dry-run"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "dry run: 1/1 point(s) need decoding" in out
    assert "missing shots=0/800" in out
    assert not store.exists()  # nothing decoded, nothing written

    assert cli.main(["sweep", "run", str(sweep_spec_file), "--store", str(store)]) == 0
    capsys.readouterr()
    snapshot = {
        p: p.stat().st_mtime_ns for p in store.rglob("*") if p.is_file()
    }
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(store), "--dry-run"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged (nothing to decode)" in out
    assert "dry run: 0/1 point(s) need decoding" in out
    assert {
        p: p.stat().st_mtime_ns for p in store.rglob("*") if p.is_file()
    } == snapshot  # read-only against a populated store too


def test_sweep_run_workers_zero_runs_inline(capsys, tmp_path, sweep_spec_file):
    store = tmp_path / "store"
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(store),
         "--workers", "0", "--speculate", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert '"shots_decoded": 800' in out
    assert '"speculate": 2' in out


def test_sweep_run_rejects_negative_workers(capsys, tmp_path, sweep_spec_file):
    rc = cli.main(
        ["sweep", "run", str(sweep_spec_file), "--store", str(tmp_path / "s"),
         "--workers", "-1"]
    )
    assert rc == 2
    assert "--workers must be non-negative" in capsys.readouterr().err


def test_sweep_watch_rejects_nonpositive_interval(capsys, tmp_path):
    for interval in ("0", "-2"):
        rc = cli.main(
            ["sweep", "watch", "--latest", "--store", str(tmp_path / "s"),
             "--interval", interval]
        )
        assert rc == 2
        assert "--interval must be positive" in capsys.readouterr().err


def test_sweep_watch_ctrl_c_prints_final_snapshot(
    capsys, tmp_path, sweep_spec_file, monkeypatch
):
    from repro.experiments.sweeps import SweepSpec
    from repro.obs import RunWriter, sweep_manifest
    from repro.store import ResultStore

    # a live (never finished) run, so the watch loop actually sleeps
    store = ResultStore(tmp_path / "store")
    spec = SweepSpec.from_json(sweep_spec_file)
    writer = RunWriter(store.runs_root, sweep_manifest(spec))

    def interrupted_sleep(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr("time.sleep", interrupted_sleep)
    rc = cli.main(
        ["sweep", "watch", writer.run_id, "--store", str(store.root)]
    )
    assert rc == 130  # the conventional SIGINT exit, not a traceback
    captured = capsys.readouterr()
    assert "watch interrupted" in captured.err
    # the final snapshot frame was rendered on the way out
    assert captured.out.count(f"run {writer.run_id}") == 2
