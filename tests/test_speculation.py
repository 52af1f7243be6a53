"""Scheduler parity: the sweep scheduler must store exactly what the
scheduler-free oracle (``sweep_oracle.py``: batches decoded one by one in
index order) computes, for any worker count and speculation depth —
estimates, per-point shot counts and stored record contents — and
interrupted speculative runs must resume bit-identically (replaying the
commit-ahead log instead of re-decoding)."""

import dataclasses

import pytest
from sweep_oracle import oracle_record, oracle_records

from repro.experiments.ler import clear_pipeline_cache
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
        name="speculation",
        distances=(2,),
        taus_ns=(500.0, 1000.0),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        seed=11,
        batch_shots=400,
        min_shots=400,
        max_shots=4000,
        target_rse=0.12,
        p=5e-3,
    )
    base.update(kwargs)
    return SweepSpec(**base)


# the library's own parity view: failures, shots, batches, convergence
# state, config echo and plan summary all stay; only decode_stats
# (timings, cache counters) and updated_at are dropped
_scrub = record_parity_view


def _records(report):
    return {o.key: o.record for o in report.outcomes}


# ---------------------------------------------------------------------------
# the acceptance criterion: oracle vs {depth 0, 1, 4} x {inline, threads}
# (workers 0 and 1 run the inline executor, workers 4 a pool of decode
# threads; depth 0 keeps one batch in flight per worker)
# ---------------------------------------------------------------------------


def test_speculative_parity_matrix(tmp_path):
    spec = _spec()
    ref_records = oracle_records(spec)
    assert len(ref_records) == len(spec.points())
    assert any(r["batches"] > 1 for r in ref_records.values())  # rule actually adapts

    for speculate in (0, 1, 4):
        for workers in (0, 1, 4):
            clear_pipeline_cache()
            store = ResultStore(tmp_path / f"s{speculate}w{workers}")
            report = run_sweep(spec, store, workers=workers, speculate=speculate)
            assert report.speculate == speculate
            got = _records(report)
            assert got.keys() == ref_records.keys()
            for key, ref in ref_records.items():
                rec = got[key]
                # estimates and per-point shot counts, bit for bit
                assert rec["failures"] == ref["failures"], (speculate, workers)
                assert rec["shots"] == ref["shots"], (speculate, workers)
                assert [
                    (e.successes, e.trials) for e in point_record_estimates(rec)
                ] == [(e.successes, e.trials) for e in point_record_estimates(ref)]
                # full record contents, minus execution-dependent stats
                assert _scrub(rec) == ref, (speculate, workers)
                # what the scheduler wrote is what the report carries
                assert _scrub(store.get(key)) == ref


def test_outcomes_emitted_in_sweep_order(tmp_path):
    spec = _spec(max_shots=800, target_rse=None)
    inline = run_sweep(spec, ResultStore(tmp_path / "a"))
    clear_pipeline_cache()
    pooled = run_sweep(spec, ResultStore(tmp_path / "b"), workers=4, speculate=2)
    expected = [pt.key(seed=spec.seed, batch_shots=spec.batch_shots) for pt in spec.points()]
    assert [o.key for o in inline.outcomes] == expected
    assert [o.key for o in pooled.outcomes] == expected


# ---------------------------------------------------------------------------
# interruption and resume (commit-ahead log replay)
# ---------------------------------------------------------------------------


def test_interrupted_speculative_run_resumes_bit_identically(tmp_path):
    spec = _spec()
    clean = _records(run_sweep(spec, ResultStore(tmp_path / "clean")))

    for resume_kwargs in (
        dict(workers=1, speculate=0),  # resume inline, one batch in flight
        dict(workers=2, speculate=3),  # resume on a speculative pool
    ):
        clear_pipeline_cache()
        store = ResultStore(tmp_path / f"int-{resume_kwargs['speculate']}")
        partial = run_sweep(spec, store, workers=2, speculate=3, batch_limit=4)
        assert partial.interrupted
        clear_pipeline_cache()
        resumed = run_sweep(spec, store, **resume_kwargs)
        assert not resumed.interrupted
        got = _records(resumed)
        assert got.keys() == clean.keys()
        for key, ref in clean.items():
            assert _scrub(got[key]) == _scrub(ref), resume_kwargs


def test_overshoot_is_committed_then_replayed_by_tightened_resume(tmp_path):
    # loose target: every point converges after one batch, so depth-4
    # speculation decodes batches the stopping rule excludes — they must
    # land in the commit-ahead log, not in the estimates
    loose = _spec(target_rse=0.3, max_shots=8000)
    tight = dataclasses.replace(loose, target_rse=0.12)
    clean_tight = _records(run_sweep(tight, ResultStore(tmp_path / "ct")))

    clear_pipeline_cache()
    store = ResultStore(tmp_path / "s")
    first = run_sweep(loose, store, workers=2, speculate=4)
    assert first.batches_overshoot > 0
    overshoot = sum(len(store.batch_indices(k)) for k in store.keys())
    assert overshoot > 0  # committed ahead, excluded from estimates

    # tightening the target extends every point; the overshoot batches are
    # replayed from the log instead of decoded again, bit-identically
    second = run_sweep(tight, store)
    assert second.batches_replayed > 0
    got = _records(second)
    for key, ref in clean_tight.items():
        assert _scrub(got[key]) == _scrub(ref)


def test_restart_discards_the_commit_ahead_log(tmp_path):
    """--restart means recompute: stale batch results must not replay."""
    spec = _spec()
    store = ResultStore(tmp_path)
    partial = run_sweep(spec, store, workers=2, speculate=3, batch_limit=4)
    assert partial.interrupted
    assert any(store.batch_indices(k) for k in store.keys())  # log populated
    clear_pipeline_cache()
    redone = run_sweep(spec, store, resume=False)
    assert redone.batches_replayed == 0  # recomputed, not replayed
    clean = _records(run_sweep(spec, ResultStore(tmp_path / "clean")))
    for key, ref in clean.items():
        assert _scrub(_records(redone)[key]) == _scrub(ref)


def test_replayed_batches_do_not_count_as_decoded(tmp_path):
    loose = _spec(target_rse=0.3, max_shots=8000)
    tight = dataclasses.replace(loose, target_rse=0.12)
    clean = run_sweep(tight, ResultStore(tmp_path / "c"))
    clear_pipeline_cache()
    store = ResultStore(tmp_path / "s")
    first = run_sweep(loose, store, workers=2, speculate=4)
    clear_pipeline_cache()
    second = run_sweep(tight, store)
    replayed_shots = (
        clean.shots_decoded - first.shots_decoded - second.shots_decoded
    )
    assert replayed_shots > 0  # the log saved real decoding work
    assert second.batches_replayed * loose.batch_shots == replayed_shots


# ---------------------------------------------------------------------------
# damaged or mis-sized commit-ahead records are decoded again
# ---------------------------------------------------------------------------


def test_resume_survives_a_corrupt_commit_ahead_record(tmp_path):
    """A truncated batch-log write must be re-decoded, not crash resume."""
    spec = _spec()
    clean = _records(run_sweep(spec, ResultStore(tmp_path / "clean")))
    clear_pipeline_cache()
    store = ResultStore(tmp_path / "s")
    partial = run_sweep(spec, store, workers=2, speculate=3, batch_limit=4)
    assert partial.interrupted
    corruptions = [
        '{"shots": 4',  # truncated mid-write (invalid JSON)
        # valid JSON, damaged payloads: every numeric field _apply_batch
        # sums must be validated, not just the record shape
        '{"shots": 400, "failures": [null, null, null], "decode_stats": {}}',
        '{"shots": 400, "failures": "many", "decode_stats": {}}',
        '{"shots": true, "failures": [0, 0, 0], "decode_stats": {}}',
        '{"shots": 400, "failures": [0, 0, 0], "decode_stats": {"decode_seconds": "fast"}}',
    ]
    n = 0
    for key in store.keys():  # corrupt every committed batch record
        for index in store.batch_indices(key):
            path = tmp_path / "s" / "batches" / key[:2] / key / f"{index}.json"
            path.write_text(corruptions[n % len(corruptions)])
            n += 1
    assert n > 0
    clear_pipeline_cache()
    resumed = run_sweep(spec, store, workers=2, speculate=3)
    assert resumed.batches_replayed == 0  # nothing replayable survived
    got = _records(resumed)
    for key, ref in clean.items():
        assert _scrub(got[key]) == _scrub(ref)


def test_mis_sized_commit_ahead_batch_is_decoded_again(tmp_path):
    """Only a scheduler that grew batches could commit a batch of another
    size; replaying it would mix sizes into the record."""
    spec = _spec(
        taus_ns=(500.0,), policies=(PolicySpec("passive"),),
        target_rse=None, max_shots=1200,
    )
    (pt,) = spec.points()
    ref = oracle_record(spec, pt)
    store = ResultStore(tmp_path)
    key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
    nobs = len(ref["failures"])
    store.put_batch(
        key,
        1,
        {"shots": 2 * spec.batch_shots, "failures": [0] * nobs, "decode_stats": {}},
    )
    report = run_sweep(spec, store)
    assert report.batches_replayed == 0
    assert _scrub(report.outcomes[0].record) == ref


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------


def test_concurrent_scheduler_handles_not_applicable_points(tmp_path):
    spec = _spec(
        policies=(
            PolicySpec("passive"),
            PolicySpec("extra_rounds", (("max_rounds", 0),)),
        ),
        taus_ns=(1000.0,),
        max_shots=800,
        target_rse=None,
    )
    report = run_sweep(spec, ResultStore(tmp_path), workers=2, speculate=2)
    statuses = sorted(o.record.get("status") for o in report.outcomes)
    assert statuses == ["not_applicable", "ok"]
    assert not report.interrupted


def test_concurrent_rerun_serves_entirely_from_store(tmp_path):
    spec = _spec(max_shots=800, target_rse=None)
    store = ResultStore(tmp_path)
    first = run_sweep(spec, store, workers=2, speculate=2)
    assert first.shots_decoded > 0
    again = run_sweep(spec, store, workers=2, speculate=2)
    assert again.shots_decoded == 0
    assert again.points_from_store == len(spec.points())
    assert _records(again).keys() == _records(first).keys()


def test_speculation_stops_at_the_shot_cap(tmp_path):
    """White-box: dispatch projects the unapplied batches at ``batch_shots``
    and never speculates past ``max_shots``, but an unconverged point with
    nothing unapplied always gets its in-order batch."""
    from concurrent.futures import Future

    from repro.experiments import sweeps as sweeps_module
    from repro.experiments.sweeps import _ConcurrentPoint, _SweepRun

    spec = _spec(
        taus_ns=(500.0,),
        policies=(PolicySpec("passive"),),
        max_shots=2000,
        target_rse=None,
    )
    run = _SweepRun(spec, ResultStore(tmp_path), workers=2, speculate=4)
    (pt,) = spec.points()
    key, record, pipe, resolved = run._prepare_point(pt)
    assert not resolved
    state = _ConcurrentPoint(pt, key, record, pipe, set())
    record.update(shots=800, batches=2)  # batches 0 and 1 applied
    state.next_index = 2

    submitted = []

    def fake_submit(pool, task):
        submitted.append(task)
        return Future()  # never completes; we only test dispatch decisions

    futures = {}
    try:
        sweeps_module.submit_task, saved = fake_submit, sweeps_module.submit_task
        run._dispatch_point(state, depth=4, futures=futures)
    finally:
        sweeps_module.submit_task = saved
    run.close()
    # 800 applied + 3 x 400 in flight reaches the cap: the fourth slot of
    # the depth-4 window stays empty
    assert sorted(state.inflight) == [2, 3, 4]
    assert [t.shots for t in submitted] == [400] * 3
    assert state.next_index == 5


def test_run_sweep_rejects_negative_speculate(tmp_path):
    with pytest.raises(ValueError, match="speculate"):
        run_sweep(_spec(), ResultStore(tmp_path), speculate=-1)


def test_speculative_interruption_checkpoints_partial_state(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    partial = run_sweep(spec, store, workers=2, speculate=3, batch_limit=2)
    assert partial.interrupted
    assert store.summary()["partial"] >= 1  # checkpointed, resumable
    assert partial.shots_decoded <= 2 * spec.batch_shots


# ---------------------------------------------------------------------------
# cost-ordered admission: bit-identical records, sweep-order emission
# ---------------------------------------------------------------------------


def test_admission_orders_bit_identical(tmp_path):
    spec = _spec()
    ref = run_sweep(spec, ResultStore(tmp_path / "ref"))
    ref_records = {k: _scrub(r) for k, r in _records(ref).items()}
    ref_keys = [o.key for o in ref.outcomes]

    for workers, speculate in ((1, 4), (4, 2)):  # inline and pool
        clear_pipeline_cache()
        store = ResultStore(tmp_path / f"a{workers}")
        # seed asymmetric progress so the cost order genuinely differs
        # from sweep order (the first point is part-done, costing less)
        seeded = run_sweep(spec, store, batch_limit=2)
        assert seeded.interrupted
        clear_pipeline_cache()
        report = run_sweep(spec, store, workers=workers, speculate=speculate)
        got = {k: _scrub(r) for k, r in _records(report).items()}
        assert got == ref_records, workers
        # emission order is the sweep grid order, never admission order
        assert [o.key for o in report.outcomes] == ref_keys


# ---------------------------------------------------------------------------
# plan_sweep (`sweep run --dry-run`): cost model without decoding
# ---------------------------------------------------------------------------


def _tree_snapshot(root):
    import os

    snap = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            snap[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return snap


def test_plan_sweep_decodes_nothing(tmp_path):
    from repro.experiments.sweeps import plan_sweep

    spec = _spec()
    root = tmp_path / "s"
    plan = plan_sweep(spec, ResultStore(root))
    assert not root.exists()  # read-only: not even the store root appears
    assert plan["totals"]["points"] == len(spec.points())
    assert plan["totals"]["decode"] == len(spec.points())
    # shot-cap worst case on an empty store: every batch of every point
    per_point = spec.max_shots // spec.batch_shots
    assert plan["totals"]["batches_remaining"] == per_point * len(spec.points())
    assert plan["totals"]["est_new_shots"] == spec.max_shots * len(spec.points())

    # a partially-run store: the plan reflects committed work, still read-only
    store = ResultStore(root)
    partial = run_sweep(spec, store, workers=2, speculate=3, batch_limit=4)
    assert partial.interrupted
    before = _tree_snapshot(root)
    plan2 = plan_sweep(spec, store)
    assert _tree_snapshot(root) == before  # byte-for-byte untouched
    assert plan2["totals"]["est_new_shots"] < plan["totals"]["est_new_shots"]
    statuses = {row["status"] for row in plan2["points"]}
    assert statuses <= {"partial", "converged", "missing"}

    # a finished store plans zero work
    clear_pipeline_cache()
    run_sweep(spec, store)
    plan3 = plan_sweep(spec, store)
    assert plan3["totals"]["batches_remaining"] == 0
    assert plan3["totals"]["est_new_shots"] == 0
    assert all(row["status"] == "converged" for row in plan3["points"])


# ---------------------------------------------------------------------------
# worker crash: checkpoint in finally, ledger error, clean resume
# ---------------------------------------------------------------------------

#: (entropy, spawn_key) of the one batch _poisonable_run_task should fail;
#: module-level so every decode thread sees it
_POISON = None
_REAL_RUN_TASK = None


def _poisonable_run_task(task):
    seed = task.seed
    if (
        _POISON is not None
        and getattr(seed, "entropy", None) == _POISON[0]
        and tuple(getattr(seed, "spawn_key", ()) or ()) == tuple(_POISON[1])
    ):
        raise RuntimeError("poisoned batch")
    return _REAL_RUN_TASK(task)


@pytest.mark.parametrize("workers", [1, 2])  # inline executor and thread pool
def test_worker_crash_checkpoints_and_resumes(tmp_path, monkeypatch, workers):
    global _POISON, _REAL_RUN_TASK
    from repro.experiments import parallel
    from repro.obs import RunLedger
    from repro.store import batch_entropy

    spec = _spec()
    clean = {
        k: _scrub(r)
        for k, r in _records(run_sweep(spec, ResultStore(tmp_path / "c"))).items()
    }
    clear_pipeline_cache()

    # poison the third batch of the last sweep point: every point of this
    # spec decodes >= 4 batches, so both schedulers genuinely reach it
    target = spec.points()[-1]
    target_key = target.key(seed=spec.seed, batch_shots=spec.batch_shots)
    _REAL_RUN_TASK = parallel._run_task.__wrapped__ if hasattr(
        parallel._run_task, "__wrapped__"
    ) else parallel._run_task
    _POISON = batch_entropy(spec.seed, target_key, 2)
    monkeypatch.setattr(parallel, "_run_task", _poisonable_run_task)

    store = ResultStore(tmp_path / "s")
    try:
        with pytest.raises(RuntimeError, match="poisoned batch"):
            run_sweep(spec, store, workers=workers, speculate=3, ledger=True)
    finally:
        _POISON = None

    # the ledger closed the run as an error
    ledger = RunLedger.for_store(store)
    rid = ledger.latest()
    assert rid is not None
    assert ledger.status(rid) == "error"
    # partial point records were checkpointed despite the crash
    assert any(store.get(k) is not None for k in clean)
    # sibling work that had already decoded stayed committed: log entries at
    # or past each unconverged record's applied prefix are what a resume can
    # replay.  A converged point keeps its speculative overshoot in the log
    # too, but a resume never revisits a converged point, so those entries
    # are not counted.
    ahead = 0
    for k in clean:
        record = store.get(k) or {}
        if not record.get("converged"):
            ahead += sum(
                1 for i in store.batch_indices(k) if i >= record.get("batches", 0)
            )

    clear_pipeline_cache()
    resumed = run_sweep(spec, store, workers=workers, speculate=3)
    assert not resumed.interrupted
    got = {k: _scrub(r) for k, r in _records(resumed).items()}
    assert got == clean  # bit-identical to the uninterrupted run
    if ahead:  # committed batches replayed instead of re-decoding
        assert resumed.batches_replayed > 0
