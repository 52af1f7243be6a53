"""Perf-trajectory contract (`repro.obs.history`, docs/CI.md).

The history is an append-only JSONL of benchmark series keyed by a
manifest of the perf-relevant environment.  These tests pin:

* direction inference from metric names (throughput up, latency down);
* grouping — entries only compare within (source, manifest_key);
* the comparison policy: median-of-window baseline, relative threshold,
  and — the acceptance criterion — a fixture history with an injected 2x
  throughput regression is *reported* under the default CLI invocation
  (exit 0) and *fails* only under ``--strict`` (exit 1);
* torn-tail crash tolerance, same policy as the run ledger.
"""

import json

import pytest

from repro import cli
from repro.obs import history


@pytest.fixture(autouse=True)
def _cwd_tmp(tmp_path, monkeypatch):
    # DEFAULT_HISTORY is repo-relative; keep every test off the real repo
    monkeypatch.chdir(tmp_path)


def _results(tmp_path, name="results.json", **series):
    path = tmp_path / name
    payload = dict(series) if series else {"dedup_shots_per_sec": 100000.0}
    path.write_text(json.dumps(payload))
    return path


def _record_n(tmp_path, hist, n, **series):
    src = _results(tmp_path, **series)
    for _ in range(n):
        history.record_history_entry(src, history_path=hist)
    return src


# ---------------------------------------------------------------------------
# direction inference + series extraction
# ---------------------------------------------------------------------------


def test_series_direction_inference():
    assert history.series_direction("dedup_shots_per_sec") == "up"
    assert history.series_direction("rate_hz") == "up"
    assert history.series_direction("speedup_vs_seed_loop") == "up"
    assert history.series_direction("cold_sweep_seconds") == "down"
    assert history.series_direction("span.decode.kernel.p99_ns") == "down"
    assert history.series_direction("apply_ms") == "down"
    # throughput suffix wins over the bare `_s` latency suffix
    assert history.series_direction("rows_per_s") == "up"
    assert history.series_direction("shots") is None
    assert history.series_direction("cpu_count") is None


def test_series_direction_speedup_family():
    # the speculation benchmark's headline metrics, exactly as recorded
    assert history.series_direction("speedup") == "up"
    assert history.series_direction("speedup_vs_serial") == "up"
    # fragment match: `speedup` anywhere in the name
    assert history.series_direction("decode_speedup_cold") == "up"


def test_series_direction_ratio_family():
    assert history.series_direction("dedup_ratio") == "up"
    assert history.series_direction("cache_hit_ratio") == "up"
    # a ratio never falls through to the bare-`_s` latency suffix
    assert history.series_direction("shots_ratio") == "up"


def test_series_direction_x_family():
    assert history.series_direction("warm_vs_cold_x") == "up"
    assert history.series_direction("throughput_x") == "up"
    # `_x` is a suffix match only — names merely containing x stay latency
    assert history.series_direction("exec_ms") == "down"
    assert history.series_direction("max_shots") is None


def test_results_series_flattens_and_skips_meta():
    series = history.results_series({
        "config": {"d": 3, "deep": {"rate_per_sec": 5.0}},
        "meta": {"cpu_count": 64},          # provenance, not a measurement
        "parity_ok": True,                   # bools are not series
        "label": "fast",                     # strings are not series
        "nan_free": 2.5,
    })
    assert series == {
        "config.d": 3.0,
        "config.deep.rate_per_sec": 5.0,
        "nan_free": 2.5,
    }


def test_manifest_key_separates_machines():
    a = {"python": "3.12.0", "platform": "linux", "cpu_count": 4, "store_salt": "s"}
    b = dict(a, cpu_count=128)
    assert history.manifest_key(a) == history.manifest_key(dict(a))
    assert history.manifest_key(a) != history.manifest_key(b)


# ---------------------------------------------------------------------------
# record + load round-trip
# ---------------------------------------------------------------------------


def test_record_and_load_round_trip(tmp_path):
    hist = tmp_path / "h.jsonl"
    src = _results(tmp_path, dedup_shots_per_sec=100000.0)
    entry = history.record_history_entry(src, history_path=hist, note="seed")
    assert entry["schema"] == history.HISTORY_SCHEMA
    assert entry["source"] == "results.json"
    assert entry["note"] == "seed"
    assert entry["series"] == {"dedup_shots_per_sec": 100000.0}
    assert entry["manifest_key"] == history.manifest_key(entry["meta"])

    (loaded,) = history.load_history(hist)
    assert loaded == json.loads(json.dumps(entry, default=str))


def test_record_reuses_embedded_meta_block(tmp_path):
    """`repro.figures.bench.record` stamps meta; the history must honor it."""
    hist = tmp_path / "h.jsonl"
    meta = {"python": "3.1.4", "platform": "retro", "cpu_count": 1,
            "store_salt": "old", "recorded_at": 12.0}
    src = tmp_path / "stamped.json"
    src.write_text(json.dumps({"rate_per_sec": 2.0, "meta": meta}))
    entry = history.record_history_entry(src, history_path=hist)
    assert entry["meta"] == meta
    assert entry["manifest_key"] == history.manifest_key(meta)
    assert "meta" not in entry["series"]


def test_record_rejects_list_shaped_results(tmp_path):
    src = tmp_path / "rows.json"
    src.write_text(json.dumps([{"ler": 1e-4}]))
    with pytest.raises(ValueError):
        history.record_history_entry(src, history_path=tmp_path / "h.jsonl")


def test_record_folds_metrics_span_percentiles(tmp_path):
    from repro import obs

    metrics = tmp_path / "m.json"
    obs.configure(metrics_path=metrics)
    try:
        with obs.span("decode.kernel"):
            pass
        obs.write_metrics()
    finally:
        obs.reset()
    hist = tmp_path / "h.jsonl"
    src = _results(tmp_path)
    entry = history.record_history_entry(src, metrics_path=metrics, history_path=hist)
    span_keys = [k for k in entry["series"] if k.startswith("span.decode.kernel.")]
    assert sorted(span_keys) == [
        "span.decode.kernel.p50_ns",
        "span.decode.kernel.p95_ns",
        "span.decode.kernel.p99_ns",
    ]
    assert history.series_direction(span_keys[0]) == "down"


def test_load_history_tolerates_torn_tail(tmp_path):
    hist = tmp_path / "h.jsonl"
    _record_n(tmp_path, hist, 2)
    with open(hist, "a") as f:
        f.write('{"schema": "repro.bench.hist')  # crash mid-append
    assert len(history.load_history(hist)) == 2
    # and compare still works on what survived
    report = history.compare_history(hist)
    assert report["entries"] == 2


# ---------------------------------------------------------------------------
# compare: baselines, grouping, thresholds
# ---------------------------------------------------------------------------


def test_compare_flags_throughput_drop_and_latency_rise(tmp_path):
    hist = tmp_path / "h.jsonl"
    src = _results(tmp_path, dedup_shots_per_sec=100000.0, apply_seconds=1.0)
    for _ in range(3):
        history.record_history_entry(src, history_path=hist)
    src.write_text(json.dumps({"dedup_shots_per_sec": 50000.0, "apply_seconds": 2.0}))
    history.record_history_entry(src, history_path=hist)

    report = history.compare_history(hist)
    flagged = {(f["metric"], f["direction"]) for f in report["regressions"]}
    assert flagged == {("dedup_shots_per_sec", "up"), ("apply_seconds", "down")}
    assert report["improvements"] == []
    for f in report["regressions"]:
        if f["metric"] == "dedup_shots_per_sec":
            assert f["baseline"] == 100000.0 and f["latest"] == 50000.0
            assert f["change_pct"] == pytest.approx(-50.0)


def test_compare_flags_improvements_separately(tmp_path):
    hist = tmp_path / "h.jsonl"
    src = _results(tmp_path, rate_per_sec=100.0)
    for _ in range(2):
        history.record_history_entry(src, history_path=hist)
    src.write_text(json.dumps({"rate_per_sec": 200.0}))
    history.record_history_entry(src, history_path=hist)
    report = history.compare_history(hist)
    assert report["regressions"] == []
    assert [f["metric"] for f in report["improvements"]] == ["rate_per_sec"]


def test_compare_within_threshold_is_quiet(tmp_path):
    hist = tmp_path / "h.jsonl"
    src = _results(tmp_path, rate_per_sec=100.0)
    for _ in range(2):
        history.record_history_entry(src, history_path=hist)
    src.write_text(json.dumps({"rate_per_sec": 90.0}))  # -10% < 25% threshold
    history.record_history_entry(src, history_path=hist)
    report = history.compare_history(hist)
    assert report["regressions"] == [] and report["improvements"] == []
    # ... but a tighter threshold flags it
    tight = history.compare_history(hist, threshold=0.05)
    assert [f["metric"] for f in tight["regressions"]] == ["rate_per_sec"]


def test_compare_never_crosses_manifest_groups(tmp_path):
    """A slow laptop entry must not regress the fast workstation's history."""
    hist = tmp_path / "h.jsonl"
    fast = {"schema": history.HISTORY_SCHEMA, "source": "r.json",
            "meta": {"python": "3.12.0", "cpu_count": 128},
            "manifest_key": "fast0000", "series": {"rate_per_sec": 1000.0}}
    slow = dict(fast, manifest_key="slow0000", series={"rate_per_sec": 10.0})
    with open(hist, "w") as f:
        for entry in (fast, fast, slow):
            f.write(json.dumps(entry) + "\n")
    report = history.compare_history(hist)
    assert report["regressions"] == []
    assert report["compared"] == 1          # only the fast group has >= 2 entries
    assert len(report["skipped"]) == 1      # the lone slow entry waits for data


def test_compare_baseline_is_median_of_window(tmp_path):
    hist = tmp_path / "h.jsonl"
    values = [100.0, 100.0, 400.0, 100.0, 100.0]  # median 100 despite the spike
    src = tmp_path / "results.json"
    for v in values:
        src.write_text(json.dumps({"rate_per_sec": v}))
        history.record_history_entry(src, history_path=hist)
    src.write_text(json.dumps({"rate_per_sec": 50.0}))
    history.record_history_entry(src, history_path=hist)
    report = history.compare_history(hist, window=5)
    (f,) = report["regressions"]
    assert f["baseline"] == 100.0  # one outlier round cannot move the baseline


# ---------------------------------------------------------------------------
# the CLI acceptance criterion: report-only by default, gate under --strict
# ---------------------------------------------------------------------------


def _regressed_history(tmp_path):
    hist = tmp_path / "h.jsonl"
    _record_n(tmp_path, hist, 3, dedup_shots_per_sec=100000.0)
    src = tmp_path / "results.json"
    src.write_text(json.dumps({"dedup_shots_per_sec": 50000.0}))  # injected 2x drop
    history.record_history_entry(src, history_path=hist)
    return hist


def test_cli_compare_reports_regression_without_failing(tmp_path, capsys):
    hist = _regressed_history(tmp_path)
    assert cli.main(["bench", "compare", "--history", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "dedup_shots_per_sec" in out
    assert "-50.0%" in out


def test_cli_compare_strict_exits_nonzero_on_regression(tmp_path, capsys):
    hist = _regressed_history(tmp_path)
    assert cli.main(["bench", "compare", "--history", str(hist), "--strict"]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_compare_strict_passes_clean_history(tmp_path, capsys):
    hist = tmp_path / "h.jsonl"
    _record_n(tmp_path, hist, 3)
    assert cli.main(["bench", "compare", "--history", str(hist), "--strict"]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_record_then_compare_round_trip(tmp_path, capsys):
    hist = tmp_path / "h.jsonl"
    src = _results(tmp_path)
    assert cli.main(["bench", "record", str(src), "--history", str(hist),
                     "--note", "baseline"]) == 0
    out = capsys.readouterr().out
    assert "recorded results.json" in out
    assert cli.main(["bench", "compare", "--history", str(hist),
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entries"] == 1 and report["compared"] == 0


def test_cli_record_missing_file_is_clean_error(tmp_path, capsys):
    rc = cli.main(["bench", "record", str(tmp_path / "nope.json"),
                   "--history", str(tmp_path / "h.jsonl")])
    assert rc == 2
    assert "cannot record" in capsys.readouterr().err
