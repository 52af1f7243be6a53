"""Exit-code tests for ``scripts/validate_results.py``.

The validator is the last gate before benchmark artifacts ship; these
tests pin its contract: clean directory -> 0, any corruption (NaN,
truncated JSON, empty payloads, missing required keys, missing dir) -> 1,
with every problem listed on stderr.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "validate_results", REPO / "scripts" / "validate_results.py"
)
validate_results = importlib.util.module_from_spec(spec)
spec.loader.exec_module(validate_results)


@pytest.fixture
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "custom_rows.json").write_text(
        json.dumps([{"d": 3, "p": 1e-3, "ler": 2.5e-4}, {"d": 5, "p": 1e-3, "ler": 1.1e-5}])
    )
    return d


def test_clean_directory_exits_zero(results_dir, capsys):
    assert validate_results.main([str(results_dir)]) == 0
    assert "0 invalid" in capsys.readouterr().out


def test_repo_results_directory_is_valid():
    shipped = REPO / "benchmarks" / "results"
    if not shipped.is_dir():
        pytest.skip("repo ships no benchmark results")
    assert validate_results.main([str(shipped)]) == 0


def test_nan_rate_exits_nonzero(results_dir, capsys):
    # json.dump happily writes NaN; the validator must reject it
    (results_dir / "bad_nan.json").write_text('{"config": {}, "ler": NaN}')
    assert validate_results.main([str(results_dir)]) == 1
    assert "bad_nan.json" in capsys.readouterr().err


def test_truncated_json_exits_nonzero(results_dir, capsys):
    (results_dir / "truncated.json").write_text('{"config": {"d": 3}, "rows": [')
    assert validate_results.main([str(results_dir)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_empty_payload_exits_nonzero(results_dir, capsys):
    (results_dir / "empty_list.json").write_text("[]")
    (results_dir / "empty_row.json").write_text("[{}]")
    assert validate_results.main([str(results_dir)]) == 1
    err = capsys.readouterr().err
    assert "empty_list.json" in err and "empty_row.json" in err


def test_missing_required_keys_exits_nonzero(results_dir, capsys):
    # a file the repo's harness owns must carry its schema keys
    (results_dir / "decode_backends.json").write_text('{"mwpm": {}}')
    assert validate_results.main([str(results_dir)]) == 1
    assert "unionfind" in capsys.readouterr().err


def test_missing_directory_exits_nonzero(tmp_path, capsys):
    assert validate_results.main([str(tmp_path / "nope")]) == 1
    assert "not found" in capsys.readouterr().err


def test_empty_directory_exits_nonzero(tmp_path, capsys):
    empty = tmp_path / "results"
    empty.mkdir()
    assert validate_results.main([str(empty)]) == 1
    assert "no result files" in capsys.readouterr().err


def test_all_problems_listed_not_just_first(results_dir, capsys):
    (results_dir / "a_bad.json").write_text('{"x": Infinity}')
    (results_dir / "z_bad.json").write_text("[]")
    assert validate_results.main([str(results_dir)]) == 1
    err = capsys.readouterr().err
    assert "a_bad.json" in err and "z_bad.json" in err


# ---------------------------------------------------------------------------
# observability artifacts: --trace / --metrics (docs/OBSERVABILITY.md)
# ---------------------------------------------------------------------------


def _write_valid_obs_pair(tmp_path):
    from repro import obs

    obs.configure(
        trace_path=tmp_path / "t.json", metrics_path=tmp_path / "m.json"
    )
    try:
        with obs.span("decode.kernel"):
            pass
        obs.count("sweep.batches_dispatched")
        obs.write_trace()
        obs.write_metrics()
    finally:
        obs.reset()
    return tmp_path / "t.json", tmp_path / "m.json"


def test_real_obs_artifacts_validate_clean(tmp_path, capsys):
    trace, metrics = _write_valid_obs_pair(tmp_path)
    rc = validate_results.main(["--trace", str(trace), "--metrics", str(metrics)])
    assert rc == 0
    assert "0 problems" in capsys.readouterr().out


def test_trace_wrong_schema_rejected(tmp_path, capsys):
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps({"schema": "nope/v0", "traceEvents": [
        {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1}
    ]}))
    assert validate_results.main(["--trace", str(bad)]) == 1
    assert "schema" in capsys.readouterr().err


def test_trace_structural_problems_rejected(tmp_path, capsys):
    bad = tmp_path / "t.json"
    # empty traceEvents, an event missing required keys, an unknown phase,
    # and a complete event without dur must each be reported
    bad.write_text(json.dumps({
        "schema": validate_results.TRACE_SCHEMA,
        "traceEvents": [
            {"name": "a", "ph": "Z", "ts": 0, "pid": 1},
            {"name": "b", "ph": "X", "ts": -5, "pid": 1},
            {"ph": "X", "ts": 0, "dur": 1, "pid": 1},
        ],
    }))
    assert validate_results.main(["--trace", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unknown phase" in err
    assert "without dur" in err
    assert "missing keys" in err
    assert "negative ts" in err


def test_metrics_span_row_problems_rejected(tmp_path, capsys):
    trace, metrics = _write_valid_obs_pair(tmp_path)
    snap = json.loads(metrics.read_text())
    row = snap["spans"][0]
    snap["spans"] = [
        {**row, "p50_us": row["p99_us"] + 1.0},  # percentiles out of order
        {**row, "name": 7, "count": 1.5},
        {**row, "total_s": -1.0, "mean_us": "fast"},
        {k: v for k, v in row.items() if k != "p95_us"},
        "decode.kernel",
    ]
    metrics.write_text(json.dumps(snap))
    assert validate_results.main(["--metrics", str(metrics)]) == 1
    err = capsys.readouterr().err
    assert "spans[0] percentiles must satisfy p50_us <= p95_us <= p99_us" in err
    assert "spans[1] name must be a string" in err
    assert "spans[1] count must be an integer >= 1" in err
    assert "spans[2] total_s, mean_us must be finite numbers >= 0" in err
    assert "spans[3] missing keys: p95_us" in err
    assert "spans[4] is not a dict" in err


def test_metrics_bad_counts_shape_rejected(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({
        "schema": validate_results.METRICS_SCHEMA,
        "counters": {"ok": 1, "bad": -2},
        "spans": [
            {"name": "h", "count": 0, "total_s": 0.0, "mean_us": 0.0,
             "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0},
        ],
    }))
    assert validate_results.main(["--metrics", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "non-negative integer" in err          # counter 'bad'
    assert "count must be an integer >= 1" in err


def test_metrics_v1_snapshot_rejected(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({
        "schema": "repro.obs.metrics/v1",
        "counters": {"ok": 1},
        "histograms": {
            "h": {"bucket_bounds_ns": [100, 200], "counts": [1, 0, 0],
                  "count": 1, "sum_ns": 50},
        },
    }))
    assert validate_results.main(["--metrics", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "expected 'repro.obs.metrics/v2'" in err
    assert "spans must be a list" in err


def test_unreadable_obs_artifact_rejected(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert validate_results.main(["--trace", str(missing)]) == 1
    assert "unreadable" in capsys.readouterr().err


def test_obs_flags_compose_with_directory_validation(results_dir, tmp_path, capsys):
    trace, metrics = _write_valid_obs_pair(tmp_path)
    rc = validate_results.main(
        [str(results_dir), "--trace", str(trace), "--metrics", str(metrics)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 invalid" in out


# ---------------------------------------------------------------------------
# run ledger: --ledger (docs/OBSERVABILITY.md)
# ---------------------------------------------------------------------------


def _write_valid_rundir(tmp_path, run_id="20260808T120000Z-deadbeef"):
    rundir = tmp_path / "runs" / run_id
    rundir.mkdir(parents=True)
    (rundir / "manifest.json").write_text(json.dumps({
        "schema": validate_results.RUN_SCHEMA,
        "run_id": run_id,
        "sweep": "unit",
        "spec_digest": "ab" * 32,
        "store_salt": "repro-store-v2",
        "status": "ok",
        "created_at": 1.0,
    }))
    (rundir / "events.jsonl").write_text(
        json.dumps({"ev": "run_start", "t": 1.0, "pid": 1}) + "\n"
        + json.dumps({
            "ev": "batch", "t": 2.0, "pid": 1, "kind": "decoded", "worker": "MainThread"
        }) + "\n"
        + json.dumps({"ev": "run_finish", "t": 3.0, "pid": 1, "status": "ok"}) + "\n"
    )
    return rundir


def test_ledger_valid_rundir_passes(tmp_path, capsys):
    rundir = _write_valid_rundir(tmp_path)
    assert validate_results.main(["--ledger", str(rundir)]) == 0
    assert "0 problems" in capsys.readouterr().out


def test_ledger_torn_tail_line_is_tolerated(tmp_path, capsys):
    # a crash mid-append leaves a truncated final line: not a failure
    rundir = _write_valid_rundir(tmp_path)
    with open(rundir / "events.jsonl", "a") as f:
        f.write('{"ev": "heartbeat", "t": 4.0, "pi')
    assert validate_results.main(["--ledger", str(rundir)]) == 0


def test_ledger_garbage_mid_log_rejected(tmp_path, capsys):
    rundir = _write_valid_rundir(tmp_path)
    lines = (rundir / "events.jsonl").read_text().splitlines()
    lines.insert(1, "not json at all")
    (rundir / "events.jsonl").write_text("\n".join(lines) + "\n")
    assert validate_results.main(["--ledger", str(rundir)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_ledger_manifest_problems_rejected(tmp_path, capsys):
    rundir = _write_valid_rundir(tmp_path)
    manifest = json.loads((rundir / "manifest.json").read_text())
    del manifest["spec_digest"]
    manifest["schema"] = "nope/v0"
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    assert validate_results.main(["--ledger", str(rundir)]) == 1
    err = capsys.readouterr().err
    assert "schema" in err and "spec_digest" in err


def test_ledger_event_shape_problems_rejected(tmp_path, capsys):
    rundir = _write_valid_rundir(tmp_path)
    (rundir / "events.jsonl").write_text(
        json.dumps({"ev": "batch", "t": 1.0, "pid": 1}) + "\n"   # not run_start
        + json.dumps({"ev": "warp_core_breach", "t": 2.0}) + "\n"
        + json.dumps({"t": 3.0}) + "\n"                           # no ev
    )
    assert validate_results.main(["--ledger", str(rundir)]) == 1
    err = capsys.readouterr().err
    assert "expected 'run_start'" in err
    assert "unknown event" in err
    assert "ev/t" in err


def test_ledger_batch_provenance_must_match_workers(tmp_path, capsys):
    # workers=2 runs decode on repro-decode threads; a main-thread name, a
    # missing name, or a batch kind the ledger never writes (the replays of
    # the retired commit-ahead log) is a mislabelled row
    rundir = _write_valid_rundir(tmp_path)
    manifest = json.loads((rundir / "manifest.json").read_text())
    (rundir / "manifest.json").write_text(json.dumps(dict(manifest, workers=2)))
    events = [
        {"ev": "run_start", "t": 1.0, "pid": 1},
        {"ev": "batch", "t": 2.0, "kind": "decoded", "worker": "repro-decode_0"},
        {"ev": "batch", "t": 2.1, "kind": "decoded", "worker": "MainThread"},
        {"ev": "batch", "t": 2.2, "kind": "overshoot"},
        {"ev": "batch", "t": 2.3, "kind": "replayed", "worker": "repro-decode_1"},
    ]
    (rundir / "events.jsonl").write_text(
        "".join(json.dumps(ev) + "\n" for ev in events)
    )
    assert validate_results.main(["--ledger", str(rundir)]) == 1
    err = capsys.readouterr().err
    assert "line 2" not in err
    assert "line 3: batch decoded by 'MainThread'" in err
    assert "line 4: overshoot batch has no worker" in err
    assert "line 5: unknown batch kind 'replayed'" in err


def test_ledger_missing_rundir_rejected(tmp_path, capsys):
    assert validate_results.main(["--ledger", str(tmp_path / "nope")]) == 1
    assert "unreadable" in capsys.readouterr().err

