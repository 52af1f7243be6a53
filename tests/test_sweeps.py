"""Sweep orchestrator tests: resume determinism, adaptive stopping, decode
threads, one-point fixed-shot sweeps (the figure builders' point records),
and per-point decode stats."""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.core import make_policy
from repro.experiments import ler as ler_module
from repro.experiments.ler import SurgeryLerConfig, clear_pipeline_cache
from repro.experiments.sweeps import (
    PolicySpec,
    SweepSpec,
    point_record_estimates,
    run_sweep,
)
from repro.noise import GOOGLE
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _fresh_pipeline_cache():
    clear_pipeline_cache()
    yield
    clear_pipeline_cache()


def _spec(**kwargs):
    base = dict(
        name="test",
        distances=(2,),
        taus_ns=(500.0,),
        policies=(PolicySpec("passive"),),
        hardware=GOOGLE,
        seed=11,
        batch_shots=500,
        min_shots=500,
        max_shots=2000,
        target_rse=None,
    )
    base.update(kwargs)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# spec expansion and (de)serialization
# ---------------------------------------------------------------------------


def test_spec_round_trips_through_json(tmp_path):
    spec = _spec(
        policies=(PolicySpec("passive"), PolicySpec("hybrid", (("eps_ns", 100.0),))),
        target_rse=0.1,
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = SweepSpec.from_json(path)
    assert loaded == spec


def test_spec_accepts_hardware_presets_and_policy_dicts():
    spec = SweepSpec.from_dict(
        {
            "name": "x",
            "hardware": "google",
            "distances": [2, 3],
            "taus_ns": [500],
            "policies": ["passive", {"name": "hybrid", "eps_ns": 100.0}],
        }
    )
    assert spec.hardware == GOOGLE
    assert spec.policies[1] == PolicySpec("hybrid", (("eps_ns", 100.0),))
    points = spec.points()
    assert len(points) == 4
    assert points[0].config.distance == 2
    assert points[1].policy_name == "hybrid"
    assert points[1].config.policy_args == (("eps_ns", 100.0),)


def test_point_keys_distinct_across_grid():
    spec = _spec(distances=(2, 3), policies=(PolicySpec("passive"), PolicySpec("active")))
    keys = {p.key(seed=spec.seed, batch_shots=spec.batch_shots) for p in spec.points()}
    assert len(keys) == 4


# ---------------------------------------------------------------------------
# resume determinism (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_interrupted_then_resumed_is_bit_identical(tmp_path):
    spec = _spec(policies=(PolicySpec("passive"), PolicySpec("active")))
    clean = run_sweep(spec, ResultStore(tmp_path / "clean"))
    assert clean.shots_decoded == spec.max_shots * 2

    store = ResultStore(tmp_path / "interrupted")
    partial = run_sweep(spec, store, batch_limit=3)
    assert partial.interrupted
    assert partial.shots_decoded == 3 * spec.batch_shots
    assert store.summary()["partial"] >= 1

    resumed = run_sweep(spec, store, resume=True)
    assert not resumed.interrupted
    # resumed only decodes what the interruption skipped
    assert resumed.shots_decoded == clean.shots_decoded - partial.shots_decoded
    clean_records = {o.key: o.record for o in clean.outcomes}
    for outcome in resumed.outcomes:
        ref = clean_records[outcome.key]
        assert outcome.record["failures"] == ref["failures"]
        assert outcome.record["shots"] == ref["shots"]
        assert outcome.record["batches"] == ref["batches"]
        assert outcome.record["stop_reason"] == ref["stop_reason"]


def test_restart_without_resume_matches_too(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    run_sweep(spec, store, batch_limit=1)
    redone = run_sweep(spec, store, resume=False)  # discards the partial record
    clean = run_sweep(spec, ResultStore(tmp_path / "b"))
    assert redone.outcomes[0].record["failures"] == clean.outcomes[0].record["failures"]


def test_completed_sweep_rerun_decodes_zero_shots(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    first = run_sweep(spec, store)
    assert first.shots_decoded == spec.max_shots
    again = run_sweep(spec, store)
    assert again.shots_decoded == 0
    assert again.batches_decoded == 0
    assert again.points_from_store == len(spec.points())
    assert again.outcomes[0].record["failures"] == first.outcomes[0].record["failures"]


def test_sweep_worker_count_does_not_change_results(tmp_path):
    spec = _spec(target_rse=0.15, max_shots=3000)
    serial = run_sweep(spec, ResultStore(tmp_path / "serial"), workers=1)
    clear_pipeline_cache()
    pooled = run_sweep(spec, ResultStore(tmp_path / "pooled"), workers=3)
    a, b = serial.outcomes[0].record, pooled.outcomes[0].record
    assert a["failures"] == b["failures"]
    assert a["shots"] == b["shots"]
    assert a["stop_reason"] == b["stop_reason"]
    # decode threads never analyze: the coordinator analyzed the point once
    assert pooled.analyses_parent == 1


# ---------------------------------------------------------------------------
# adaptive shot allocation
# ---------------------------------------------------------------------------


def test_adaptive_stops_early_when_interval_is_tight(tmp_path):
    loose = _spec(target_rse=0.5, max_shots=10_000)
    report = run_sweep(loose, ResultStore(tmp_path))
    rec = report.outcomes[0].record
    assert rec["stop_reason"] == "target_rse"
    assert rec["shots"] < loose.max_shots
    # the stopping rule matches the stored numbers
    k = int(np.argmax(rec["failures"]))
    est = point_record_estimates(rec)[k]
    lo, hi = est.interval
    assert (hi - lo) / 2.0 <= 0.5 * est.rate


def test_adaptive_runs_to_cap_when_target_unreachable(tmp_path):
    tight = _spec(target_rse=1e-4, max_shots=2000)
    report = run_sweep(tight, ResultStore(tmp_path))
    rec = report.outcomes[0].record
    assert rec["stop_reason"] == "max_shots"
    assert rec["shots"] == 2000


def test_tightening_target_extends_stored_point(tmp_path):
    store = ResultStore(tmp_path)
    run_sweep(_spec(target_rse=0.5, max_shots=10_000), store)
    first_shots = next(store.records())["shots"]
    report = run_sweep(_spec(target_rse=0.2, max_shots=10_000), store)
    rec = report.outcomes[0].record
    assert rec["shots"] > first_shots  # continued, not restarted
    assert report.shots_decoded == rec["shots"] - first_shots


def test_not_applicable_policy_is_recorded_and_skipped(tmp_path):
    # extra_rounds with max_rounds=0 cannot absorb any slack: not applicable
    spec = _spec(
        policies=(PolicySpec("extra_rounds", (("max_rounds", 0),)),),
        taus_ns=(1000.0,),
    )
    store = ResultStore(tmp_path)
    report = run_sweep(spec, store)
    rec = report.outcomes[0].record
    assert rec["status"] == "not_applicable"
    assert rec["shots"] == 0
    again = run_sweep(spec, store)
    assert again.shots_decoded == 0
    assert again.outcomes[0].record["status"] == "not_applicable"


# ---------------------------------------------------------------------------
# one-point fixed-shot sweeps (the figure builders' point records)
# ---------------------------------------------------------------------------


def _config(policy="passive", tau=500.0):
    return SurgeryLerConfig(
        distance=2, hardware=GOOGLE, policy_name=policy, tau_ns=tau
    )


def _one_point(shots, seed, **kwargs):
    """One point, one batch of ``shots`` shots (how figure specs sweep)."""
    return _spec(seed=seed, batch_shots=shots, min_shots=shots, max_shots=shots, **kwargs)


def test_one_point_sweep_fixed_shot_mode(tmp_path):
    store = ResultStore(tmp_path)
    rec = run_sweep(_one_point(1500, seed=5), store, ledger=False).outcomes[0].record
    assert rec["shots"] == 1500
    assert rec["converged"] and rec["stop_reason"] == "max_shots"
    again = run_sweep(_one_point(1500, seed=5), store, ledger=False).outcomes[0].record
    assert again["failures"] == rec["failures"]
    assert len(store) == 1


def test_one_point_sweep_reads_through_store(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(_one_point(1000, seed=13), store, ledger=False)
    assert len(store) == 1
    analyses = ler_module.PIPELINE_ANALYSES
    second = run_sweep(_one_point(1000, seed=13), store, ledger=False)
    # second pass decoded nothing new: same numbers, no new analysis beyond
    # the cached pipeline, and the single stored record was reused
    assert second.shots_decoded == 0
    assert [e.successes for e in second.outcomes[0].estimates] == [
        e.successes for e in first.outcomes[0].estimates
    ]
    assert len(store) == 1
    assert ler_module.PIPELINE_ANALYSES == analyses
    # plan summary survives the store round-trip
    assert second.outcomes[0].record["plan_summary"]


def test_one_point_sweep_same_numbers_in_any_store(tmp_path):
    # a throwaway store gives the same numbers a persistent one does
    a = run_sweep(_one_point(800, seed=3), ResultStore(tmp_path / "a"), ledger=False)
    b = run_sweep(_one_point(800, seed=3), ResultStore(tmp_path / "b"), ledger=False)
    assert [e.successes for e in a.outcomes[0].estimates] == [
        e.successes for e in b.outcomes[0].estimates
    ]


# ---------------------------------------------------------------------------
# per-family warm pipelines and deterministic decode counters
# ---------------------------------------------------------------------------


def test_family_cache_persists_across_sweep_batches(tmp_path):
    # one analysis in the coordinator serves every batch of the point
    spec = _spec(p=5e-3, batch_shots=500, max_shots=2000)
    ler_module.clear_pipeline_cache()
    report = run_sweep(spec, ResultStore(tmp_path))
    stats = report.outcomes[0].record["decode_stats"]
    assert stats["batches"] == 4
    assert report.analyses_parent == 1
    # each batch decodes its own distinct syndromes once
    assert stats["decode_calls"] == stats["distinct_syndromes"] > 0


@pytest.mark.parametrize("speculate", [0, 1])
def test_inline_sweep_builds_each_point_graph_once(tmp_path, speculate):
    # the inline executor reuses the coordinator's analyzed pipeline: one
    # matching graph and sampler per point
    spec = _spec(
        taus_ns=(500.0, 1000.0),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        max_shots=1000,
    )
    ler_module.clear_pipeline_cache()
    recorder = obs.configure()
    try:
        report = run_sweep(spec, ResultStore(tmp_path), workers=1, speculate=speculate)
        graphs = sum(1 for e in recorder.events if e["name"] == "ler.analyze.graph")
    finally:
        obs.disable()
    points = len(spec.points())
    assert points == 4 and report.analyses_parent == points
    assert graphs == points


def test_decode_counters_match_across_worker_counts(tmp_path):
    # without a warm-state memo the counters depend only on (spec, seed)
    spec = _spec(
        taus_ns=(500.0, 1000.0), p=5e-3, batch_shots=400, max_shots=1200
    )
    serial = run_sweep(spec, ResultStore(tmp_path / "serial"), workers=1)
    clear_pipeline_cache()
    pooled = run_sweep(spec, ResultStore(tmp_path / "pooled"), workers=2)
    by_key = {o.key: o.record["decode_stats"] for o in pooled.outcomes}
    assert len(by_key) == len(serial.outcomes) == 2
    for o in serial.outcomes:
        a, b = o.record["decode_stats"], by_key[o.key]
        for k in ("distinct_syndromes", "decode_calls"):
            assert a[k] == b[k], k
        assert a["decode_calls"] == a["distinct_syndromes"] > 0


def test_family_caches_are_isolated_per_decoder(tmp_path):
    # same configuration decoded with two decoders in one process: the
    # per-family warm pipeline must not leak one decoder's masks into the other
    def record(store_dir, decoder):
        spec = _one_point(1000, seed=9, p=5e-3, decoder=decoder)
        return run_sweep(spec, ResultStore(tmp_path / store_dir), ledger=False).outcomes[0].record

    record("uf", "unionfind")
    tainted = record("mwpm", "mwpm")
    clear_pipeline_cache()  # a fresh process cannot see the unionfind run
    clean = record("mwpm2", "mwpm")
    assert tainted["failures"] == clean["failures"]


def test_family_cache_survives_rounds_in_pooled_mode(tmp_path):
    # every batch on the run-wide thread pool decodes the coordinator's one
    # analyzed pipeline: the point is analyzed exactly once
    spec = _spec(p=5e-3, batch_shots=500, max_shots=3000)
    report = run_sweep(spec, ResultStore(tmp_path), workers=2)
    stats = report.outcomes[0].record["decode_stats"]
    assert stats["batches"] == 6
    assert stats["decode_calls"] == stats["distinct_syndromes"] > 0
    assert report.analyses_parent == 1


# ---------------------------------------------------------------------------
# adaptive batch sizing
# ---------------------------------------------------------------------------


def test_adaptive_batching_grows_batches_up_to_cap(tmp_path):
    spec = _spec(
        p=5e-3,  # failures arrive quickly, so the RSE trend stabilizes early
        batch_shots=500,
        min_shots=500,
        max_shots=20_000,
        adaptive_batching=True,
        max_batch_shots=2000,
    )
    report = run_sweep(spec, ResultStore(tmp_path))
    record = report.outcomes[0].record
    assert record["shots"] >= spec.max_shots
    assert record["batch_shots_next"] > spec.batch_shots
    assert record["batch_shots_next"] <= spec.resolved_max_batch_shots()
    # grown batches decode the same shots in fewer batches
    assert record["batches"] < record["shots"] // spec.batch_shots
    assert record["batch_shots"] == spec.batch_shots  # key component untouched


def test_adaptive_batching_resume_is_bit_identical(tmp_path):
    spec = _spec(
        p=5e-3,
        batch_shots=500,
        max_shots=12_000,
        adaptive_batching=True,
        max_batch_shots=4000,
    )
    clean = run_sweep(spec, ResultStore(tmp_path / "clean"))
    store = ResultStore(tmp_path / "interrupted")
    partial = run_sweep(spec, store, batch_limit=2)
    assert partial.interrupted
    resumed = run_sweep(spec, store, resume=True)
    a, b = clean.outcomes[0].record, resumed.outcomes[0].record
    assert a["failures"] == b["failures"]
    assert a["shots"] == b["shots"]
    assert a["batches"] == b["batches"]
    assert a["batch_shots_next"] == b["batch_shots_next"]


def test_adaptive_batching_worker_count_independent(tmp_path):
    spec = _spec(
        p=5e-3,
        batch_shots=500,
        max_shots=8000,
        adaptive_batching=True,
        max_batch_shots=2000,
    )
    serial = run_sweep(spec, ResultStore(tmp_path / "serial"), workers=1)
    clear_pipeline_cache()
    pooled = run_sweep(spec, ResultStore(tmp_path / "pooled"), workers=3)
    a, b = serial.outcomes[0].record, pooled.outcomes[0].record
    assert a["failures"] == b["failures"]
    assert a["shots"] == b["shots"]
    assert a["batches"] == b["batches"]


def test_adaptive_batching_off_keeps_fixed_sizes(tmp_path):
    spec = _spec(batch_shots=500, max_shots=2000)
    report = run_sweep(spec, ResultStore(tmp_path))
    record = report.outcomes[0].record
    assert record["batch_shots_next"] == spec.batch_shots
    assert record["batches"] == record["shots"] // spec.batch_shots


def test_max_batch_shots_below_batch_shots_rejected():
    with pytest.raises(ValueError):
        _spec(adaptive_batching=True, max_batch_shots=100, batch_shots=500)


# ---------------------------------------------------------------------------
# export and gc
# ---------------------------------------------------------------------------


def test_export_records_round_trips_a_live_sweep(tmp_path):
    from repro.experiments.sweeps import export_records

    spec = _spec(policies=(PolicySpec("passive"), PolicySpec("active")))
    store = ResultStore(tmp_path)
    report = run_sweep(spec, store)
    rows = export_records(spec, store)
    assert len(rows) == len(spec.points())
    by_key = {o.key: o for o in report.outcomes}
    for row in rows:
        outcome = by_key[row["key"]]
        assert row["status"] == "ok"
        assert row["shots"] == outcome.record["shots"]
        assert row["failures"] == outcome.record["failures"]
        assert row["ler"] == [e.rate for e in outcome.estimates]
        assert row["converged"] is True
        lo, hi = row["wilson"][0]
        assert 0.0 <= lo <= hi <= 1.0
    # the export is pure JSON (benchmark-harness consumable) and round-trips
    assert json.loads(json.dumps(rows)) == rows


def test_export_records_marks_missing_points(tmp_path):
    from repro.experiments.sweeps import export_records

    spec = _spec(policies=(PolicySpec("passive"), PolicySpec("active")))
    store = ResultStore(tmp_path)
    run_sweep(spec, store, batch_limit=spec.max_shots // spec.batch_shots)
    rows = export_records(spec, store)
    statuses = sorted(r["status"] for r in rows)
    assert statuses == ["missing", "ok"]


def test_store_gc_prunes_stale_records_and_empty_dirs(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    run_sweep(spec, store)
    key = store.keys()[0]
    fresh = dict(store.get(key))

    # an old record under another prefix-shard: give it a stale stamp
    old_key = ("0" if not key.startswith("0") else "1") + key[1:]
    store.put(old_key, dict(fresh, updated_at=1.0))

    preview = store.gc(older_than_seconds=30 * 86400, dry_run=True)
    assert preview["pruned_keys"] == [old_key]
    assert old_key in store  # dry run touched nothing
    # the dry run already predicts the directory the prune would empty
    assert old_key[:2] in preview["dirs_removed"]
    assert (tmp_path / "points" / old_key[:2]).exists()

    result = store.gc(older_than_seconds=30 * 86400)
    assert result["pruned"] == 1
    assert old_key not in store
    assert key in store  # the fresh record survives
    assert old_key[:2] in result["dirs_removed"]
    assert not (tmp_path / "points" / old_key[:2]).exists()


def test_store_gc_rejects_negative_horizon(tmp_path):
    with pytest.raises(ValueError):
        ResultStore(tmp_path).gc(older_than_seconds=-1)


# ---------------------------------------------------------------------------
# backend threading
# ---------------------------------------------------------------------------


def test_sweep_backend_is_bit_identical_and_reaches_workers(tmp_path):
    base = _spec(p=5e-3, max_shots=1500)
    python_run = run_sweep(
        dataclasses.replace(base, backend="python"), ResultStore(tmp_path / "py")
    )
    clear_pipeline_cache()
    numpy_run = run_sweep(
        dataclasses.replace(base, backend="numpy"),
        ResultStore(tmp_path / "np"),
        workers=2,
    )
    a, b = python_run.outcomes[0].record, numpy_run.outcomes[0].record
    assert a["key"] == b["key"]  # backend is not part of the point key
    assert a["failures"] == b["failures"]
    assert a["shots"] == b["shots"]


@pytest.mark.parametrize("decoder", ["unionfind", "predecoded", "hierarchical", "mwpm"])
def test_scalar_backend_sweep_on_decode_threads_matches_inline(tmp_path, decoder):
    # the python backend runs every decoder's scalar pass, whose per-thread
    # scratch must keep decode threads sharing one cached decoder apart
    spec = _spec(
        taus_ns=(500.0, 1000.0), p=5e-3, batch_shots=300, max_shots=1200,
        backend="python", decoder=decoder,
    )
    inline = run_sweep(spec, ResultStore(tmp_path / "inline"), ledger=False)
    clear_pipeline_cache()
    threaded = run_sweep(
        spec, ResultStore(tmp_path / "threads"), workers=2, speculate=2, ledger=False
    )
    for a, b in zip(inline.outcomes, threaded.outcomes):
        assert a.key == b.key
        assert a.record["failures"] == b.record["failures"]
        assert a.record["shots"] == b.record["shots"]


def test_sweep_under_missing_backend_produces_identical_records(
    tmp_path, monkeypatch
):
    """Backend degradation must not leak into stored results.

    With the cext and numpy backends monkeypatched away, naming ``cext``
    resolves all the way down the fallback chain to ``python`` — and the sweep's
    stored records must be key-identical and content-identical to a
    reference sweep pinned to ``python``.
    """
    from repro.decoders.kernels import CextBackend, NumpyBackend

    base = _spec(p=5e-3, max_shots=1500)
    reference = run_sweep(
        dataclasses.replace(base, backend="python"), ResultStore(tmp_path / "ref")
    )
    clear_pipeline_cache()
    monkeypatch.setattr(CextBackend, "available", lambda self: False)
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    degraded = run_sweep(
        dataclasses.replace(base, backend="cext"), ResultStore(tmp_path / "deg")
    )
    for a, b in zip(reference.outcomes, degraded.outcomes):
        assert a.key == b.key  # backend never reaches the point key
        assert a.record["failures"] == b.record["failures"]
        assert a.record["shots"] == b.record["shots"]
        assert a.record["batches"] == b.record["batches"]


def test_sweep_spec_rejects_unknown_decoder():
    with pytest.raises(ValueError, match="unknown decoder"):
        _spec(decoder="no-such-decoder")


def test_sweep_runs_predecoded_decoder_through_the_store(tmp_path):
    """The wrapped decoder names round-trip through specs, workers, store."""
    spec = _spec(decoder="predecoded", p=5e-3, max_shots=1000)
    first = run_sweep(spec, ResultStore(tmp_path / "s"))
    record = first.outcomes[0].record
    assert record["config"]["decoder"] == "predecoded"
    assert record["shots"] == 1000
    # a re-run serves entirely from the store, decoding nothing
    again = run_sweep(spec, ResultStore(tmp_path / "s"))
    assert again.shots_decoded == 0
    assert again.outcomes[0].record["failures"] == record["failures"]


def test_hierarchical_lut_budget_is_part_of_the_point_key(monkeypatch):
    """REPRO_DECODE_LUT_BYTES changes predictions, so it must change keys —
    a resumed sweep under a different budget re-decodes instead of merging
    batches from an effectively different decoder."""
    spec = _spec(decoder="hierarchical")
    pt = spec.points()[0]
    key_a = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
    monkeypatch.setitem(ler_module.DECODE_DEFAULTS, "lut_bytes", 1024)
    key_b = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
    assert key_a != key_b
    # non-parameterized decoders keep their historical keys
    uf = _spec(decoder="unionfind").points()[0]
    assert ler_module.decoder_store_identity("unionfind") == "unionfind"
    assert uf.key(seed=spec.seed, batch_shots=spec.batch_shots) == uf.key(
        seed=spec.seed, batch_shots=spec.batch_shots
    )


def test_pipeline_decoder_cache_follows_lut_budget(monkeypatch):
    """The pipeline's decoder cache keys by store identity: changing the
    LUT budget rebuilds the decoder instead of serving the stale one."""
    cfg = SurgeryLerConfig(
        distance=2, hardware=GOOGLE, policy_name="passive", tau_ns=500.0
    )
    pipe = ler_module.prepared_pipeline(cfg, make_policy("passive"))
    monkeypatch.setitem(ler_module.DECODE_DEFAULTS, "lut_bytes", 4096)
    big = pipe.decoder("hierarchical")
    assert pipe.decoder("hierarchical") is big  # stable while the knob is
    monkeypatch.setitem(ler_module.DECODE_DEFAULTS, "lut_bytes", 64)
    small = pipe.decoder("hierarchical")
    assert small is not big
    assert small.lut.size_bytes() <= 64 < big.lut.size_bytes()
