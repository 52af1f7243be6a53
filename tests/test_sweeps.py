"""Sweep orchestrator tests: resume determinism, adaptive stopping, decode
threads, one-point fixed-shot sweeps (the figure builders' point records),
and per-point decode stats."""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from factories import numpy_plane
from sweep_oracle import oracle_record

from repro import cli, obs
from repro.core.policies import make_policy
from repro.decoders import kernels
from repro.experiments import ler as ler_module
from repro.experiments.ler import SurgeryLerConfig, clear_pipeline_cache, run_surgery_ler
from repro.experiments.sweeps import (
    PolicySpec,
    SweepSpec,
    point_record_estimates,
    record_parity_view,
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


def test_docs_field_table_lists_exactly_the_spec_fields():
    docs = Path(__file__).resolve().parents[1] / "docs" / "SWEEPS.md"
    lines = docs.read_text().split("## Sweep spec format", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| field"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    documented = [row.split("|")[1].strip().strip("`") for row in rows]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(SweepSpec))


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


@pytest.mark.parametrize("workers", [0, 1])  # both select the inline executor
def test_inline_sweep_builds_each_point_graph_once(tmp_path, workers):
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
        report = run_sweep(spec, ResultStore(tmp_path), workers=workers)
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
# one batch size; records and spec files written before it
# ---------------------------------------------------------------------------


def test_every_batch_is_batch_shots(tmp_path):
    # a loose target on a pool: the overshoot batches are batch_shots too
    from repro.obs import RunLedger

    spec = _spec(p=5e-3, max_shots=20_000, target_rse=0.3)
    store = ResultStore(tmp_path)
    report = run_sweep(spec, store, workers=2, ledger=True)
    (outcome,) = report.outcomes
    record = outcome.record
    assert record["batches"] * spec.batch_shots == record["shots"] < spec.max_shots
    assert report.batches_overshoot > 0
    events = RunLedger.for_store(store).events(report.run_id)
    sizes = [ev["shots"] for ev in events if ev["ev"] == "batch"]
    assert len(sizes) == record["batches"] + report.batches_overshoot
    assert set(sizes) == {spec.batch_shots}


def _old_record(record: dict, next_size: int | None = None) -> dict:
    """``record`` as the scheduler that could grow batches stored it: every
    record it wrote carried its size-plan state."""
    next_size = next_size or record["batch_shots"]
    return {**record, "batch_shots_next": next_size, "rse_prev": None}


def test_old_record_resumes_to_the_oracle(capsys, tmp_path):
    spec = _spec(p=5e-3, max_shots=3000)
    (pt,) = spec.points()
    store = ResultStore(tmp_path / "store")
    partial = run_sweep(spec, store, batch_limit=2, ledger=False)
    assert partial.interrupted
    key = partial.outcomes[0].key
    store.put(key, _old_record(store.get(key)))

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec.to_dict()))
    where = ["--store", str(store.root)]
    assert cli.main(["sweep", "status", str(spec_file), *where, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "partial shots=1000" in out
    assert "2 batches applied, <= 4 x 500 shots to decode" in out
    assert cli.main(["sweep", "run", str(spec_file), *where, "--dry-run"]) == 0
    assert "<= 4 x 500 shots to decode" in capsys.readouterr().out

    resumed = run_sweep(spec, store, ledger=False)
    assert resumed.batches_decoded == 4  # the stored prefix was kept
    assert record_parity_view(resumed.outcomes[0].record) == oracle_record(spec, pt)


def test_old_record_with_grown_batches_is_recomputed(tmp_path):
    spec = _spec(p=5e-3, max_shots=3000)
    (pt,) = spec.points()
    for converged in (False, True):
        store = ResultStore(tmp_path / f"c{converged}")
        partial = run_sweep(spec, store, batch_limit=2, ledger=False)
        key = partial.outcomes[0].key
        # batches of 500 then 1000 shots: not this spec's numbers, even when
        # the stored record says it converged
        grown = dict(store.get(key), shots=1500, converged=converged)
        store.put(key, _old_record(grown, next_size=1000))
        resumed = run_sweep(spec, store, ledger=False)
        assert resumed.batches_decoded == 6  # recomputed from batch 0
        assert record_parity_view(resumed.outcomes[0].record) == oracle_record(spec, pt)


def test_retired_batch_sizing_fields_rejected():
    data = _spec().to_dict()
    for name, value in (("adaptive_batching", True), ("max_batch_shots", 4000)):
        with pytest.raises(ValueError, match=name):
            SweepSpec.from_dict(dict(data, **{name: value}))


@pytest.mark.parametrize("name, value", [
    ("hardware", {"bogus": 1}),
    ("hardware", 5),
    ("policies", [5]),
    ("policies", [{"kwargs": {}}]),
    ("distances", 5),
    ("taus_ns", ["slow"]),
])
def test_malformed_field_value_is_a_value_error_naming_the_field(name, value):
    data = _spec().to_dict()
    with pytest.raises(ValueError, match=f"bad SweepSpec field '{name}'"):
        SweepSpec.from_dict(dict(data, **{name: value}))


def test_spec_rejects_negative_observable_and_nonpositive_target():
    with pytest.raises(ValueError, match="observable"):
        _spec(observable=-1)
    for target in (0.0, -0.1):
        with pytest.raises(ValueError, match="target_rse"):
            _spec(target_rse=target)


def test_out_of_range_observable_rejected_before_any_batch(tmp_path):
    spec = _spec(observable=7, target_rse=0.3, max_shots=40_000)
    store = ResultStore(tmp_path)
    with pytest.raises(ValueError, match=r"observable 7 .* has 3 observable"):
        run_sweep(spec, store, ledger=False)
    assert store.keys() == []  # nothing decoded, nothing stored


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
# decode paths on decode threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_no_c_library_gives_identical_records_and_lers(tmp_path, workers):
    """Without the C library the host samples, dedups and decodes bit-identically.

    One sweep and one ``run_surgery_ler`` run on the host's path, then again
    with the C library patched away (the scalar pass, the numpy data plane
    and the Python DEM walk).  Stored records and LER counts must agree, and
    the decode path never reaches the point key.
    """
    cfg = SurgeryLerConfig(
        distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=1000.0, p=3e-3
    )
    spec = _spec(
        policies=(PolicySpec("passive"), PolicySpec("active")),
        p=5e-3,
        batch_shots=300,
        min_shots=300,
        max_shots=1500,
    )

    def outcomes(store_dir):
        clear_pipeline_cache()
        ler = run_surgery_ler(cfg, make_policy("passive"), 3000, rng=3, batch_size=1000)
        report = run_sweep(spec, ResultStore(store_dir), workers=workers)
        records = {
            o.key: (
                o.record["key"],
                o.record["failures"],
                o.record["shots"],
                o.record["batches"],
                o.record["decode_stats"]["distinct_syndromes"],
            )
            for o in report.outcomes
        }
        return [e.successes for e in ler.estimates], ler.decode_stats, records

    host = outcomes(tmp_path / "host")
    with numpy_plane():
        assert kernels.backend() == "python"
        scalar = outcomes(tmp_path / "python")
    assert scalar[0] == host[0]
    assert scalar[1]["distinct_syndromes"] == host[1]["distinct_syndromes"] > 0
    assert scalar[1]["backend"] == "python"
    assert scalar[2] == host[2]
    assert len(host[2]) == 2 and all(k == r[0] for k, r in host[2].items())
    assert all(r[1] and r[2] == 1500 for r in host[2].values())


@pytest.mark.parametrize("decoder", ["unionfind", "mwpm"])
def test_scalar_backend_sweep_on_decode_threads_matches_inline(tmp_path, decoder):
    # without the C library every decoder runs its scalar pass, whose
    # per-thread scratch must keep decode threads sharing one cached decoder
    # apart
    spec = _spec(
        taus_ns=(500.0, 1000.0), p=5e-3, batch_shots=300, max_shots=1200,
        decoder=decoder,
    )
    with numpy_plane():
        inline = run_sweep(spec, ResultStore(tmp_path / "inline"), ledger=False)
        clear_pipeline_cache()
        threaded = run_sweep(
            spec, ResultStore(tmp_path / "threads"), workers=2, ledger=False
        )
    for a, b in zip(inline.outcomes, threaded.outcomes):
        assert a.key == b.key
        assert a.record["failures"] == b.record["failures"]
        assert a.record["shots"] == b.record["shots"]


def test_sweep_spec_rejects_unknown_decoder():
    # names an old spec file may still carry are rejected like any other
    for name in ("no-such-decoder", "predecoded", "hierarchical"):
        with pytest.raises(ValueError, match="unknown decoder"):
            _spec(decoder=name)


@pytest.mark.parametrize(
    "decoder, key",
    [
        (
            "unionfind",
            "4d7bd38cece0062352b65605179cada780f8237dbe37dc14693ba498fee091db",
        ),
        (
            "mwpm",
            "4eae8febcc107b02f18ab41e6701f49f1d219b2abd178debbecd32940cbc869e",
        ),
    ],
    ids=["unionfind", "mwpm"],
)
def test_point_keys_are_pinned(decoder, key):
    """The decoder name feeds the point key, and stored records keep
    resolving to the same keys."""
    spec = _spec(decoder=decoder)
    pt = spec.points()[0]
    assert pt.key(seed=spec.seed, batch_shots=spec.batch_shots) == key
