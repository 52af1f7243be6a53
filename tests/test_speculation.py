"""Scheduler parity: the sweep scheduler must store exactly what the
scheduler-free oracle (``sweep_oracle.py``: batches decoded one by one in
index order) computes, for any worker count — estimates, per-point shot
counts and stored record contents — and interrupted runs must resume
bit-identically.  Decoded batches wait in memory until they are applied;
the point checkpoint is the only durable state, so no sweep writes a
per-batch log."""

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


def _no_batch_log(store):
    return not (store.root / "batches").exists()


# ---------------------------------------------------------------------------
# the acceptance criterion: oracle vs workers {0, 1, 2, 4}
# (workers 0 and 1 run the inline executor, one batch in flight; 2 and 4 a
# pool of decode threads with ``workers`` batches in flight per point)
# ---------------------------------------------------------------------------


def test_speculative_parity_matrix(tmp_path):
    spec = _spec()
    ref_records = oracle_records(spec)
    assert len(ref_records) == len(spec.points())
    assert any(r["batches"] > 1 for r in ref_records.values())  # rule actually adapts

    for workers in (0, 1, 2, 4):
        clear_pipeline_cache()
        store = ResultStore(tmp_path / f"w{workers}")
        report = run_sweep(spec, store, workers=workers)
        got = _records(report)
        assert got.keys() == ref_records.keys()
        for key, ref in ref_records.items():
            rec = got[key]
            # estimates and per-point shot counts, bit for bit
            assert rec["failures"] == ref["failures"], workers
            assert rec["shots"] == ref["shots"], workers
            assert [
                (e.successes, e.trials) for e in point_record_estimates(rec)
            ] == [(e.successes, e.trials) for e in point_record_estimates(ref)]
            # full record contents, minus execution-dependent stats
            assert _scrub(rec) == ref, workers
            # what the scheduler wrote is what the report carries
            assert _scrub(store.get(key)) == ref
        assert _no_batch_log(store), workers


def test_outcomes_emitted_in_sweep_order(tmp_path):
    spec = _spec(max_shots=800, target_rse=None)
    inline = run_sweep(spec, ResultStore(tmp_path / "a"))
    clear_pipeline_cache()
    pooled = run_sweep(spec, ResultStore(tmp_path / "b"), workers=4)
    expected = [pt.key(seed=spec.seed, batch_shots=spec.batch_shots) for pt in spec.points()]
    assert [o.key for o in inline.outcomes] == expected
    assert [o.key for o in pooled.outcomes] == expected


# ---------------------------------------------------------------------------
# interruption and resume: the point checkpoint is the only durable state
# ---------------------------------------------------------------------------


def test_interrupted_speculative_run_resumes_bit_identically(tmp_path):
    spec = _spec()
    ref_records = oracle_records(spec)

    for resume_workers in (1, 2):  # resume inline, and on a pool
        clear_pipeline_cache()
        store = ResultStore(tmp_path / f"int-{resume_workers}")
        partial = run_sweep(spec, store, workers=2, batch_limit=4)
        assert partial.interrupted
        assert _no_batch_log(store)
        clear_pipeline_cache()
        resumed = run_sweep(spec, store, workers=resume_workers)
        assert not resumed.interrupted
        got = _records(resumed)
        assert got.keys() == ref_records.keys()
        for key, ref in ref_records.items():
            assert _scrub(got[key]) == ref, resume_workers
        assert _no_batch_log(store)


@pytest.mark.parametrize("workers", [1, 2])  # inline executor and thread pool
def test_no_sweep_writes_a_batch_log(tmp_path, workers):
    """Overshoot is counted and discarded, never persisted: only point
    records (and the run ledger) land in the store."""
    spec = _spec(target_rse=0.3, max_shots=8000)  # converges after 1 batch
    store = ResultStore(tmp_path)
    report = run_sweep(spec, store, workers=workers, ledger=True)
    if workers > 1:
        assert report.batches_overshoot > 0  # the window ran past the rule
    else:
        assert report.batches_overshoot == 0  # inline decodes in order only
    assert sorted(p.name for p in tmp_path.iterdir()) == ["points", "runs"]


def test_mis_sized_commit_ahead_batch_is_decoded_again(tmp_path):
    """A per-batch log left by an older scheduler is never read: its
    batches, mis-sized or not, are decoded again."""
    spec = _spec(
        taus_ns=(500.0,), policies=(PolicySpec("passive"),),
        target_rse=None, max_shots=1200,
    )
    (pt,) = spec.points()
    ref = oracle_record(spec, pt)
    key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
    nobs = len(ref["failures"])
    batch_dir = tmp_path / "batches" / key[:2] / key
    batch_dir.mkdir(parents=True)
    for index, shots in ((0, spec.batch_shots), (1, 2 * spec.batch_shots)):
        (batch_dir / f"{index}.json").write_text(
            f'{{"shots": {shots}, "failures": {[0] * nobs}, "decode_stats": {{}}}}'
        )
    report = run_sweep(spec, ResultStore(tmp_path))
    assert report.batches_decoded == 3
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
    report = run_sweep(spec, ResultStore(tmp_path), workers=2)
    statuses = sorted(o.record.get("status") for o in report.outcomes)
    assert statuses == ["not_applicable", "ok"]
    assert not report.interrupted


def test_concurrent_rerun_serves_entirely_from_store(tmp_path):
    spec = _spec(max_shots=800, target_rse=None)
    store = ResultStore(tmp_path)
    first = run_sweep(spec, store, workers=2)
    assert first.shots_decoded > 0
    again = run_sweep(spec, store, workers=2)
    assert again.shots_decoded == 0
    assert again.points_from_store == len(spec.points())
    assert _records(again).keys() == _records(first).keys()


def test_speculation_stops_at_the_shot_cap(tmp_path):
    """White-box: dispatch projects the unapplied batches at ``batch_shots``
    and never decodes past ``max_shots``, but an unconverged point with
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
    run = _SweepRun(spec, ResultStore(tmp_path), workers=4)
    (pt,) = spec.points()
    key, record, pipe, resolved = run._prepare_point(pt)
    assert not resolved
    state = _ConcurrentPoint(pt, key, record, pipe)
    record.update(shots=800, batches=2)  # batches 0 and 1 applied
    state.next_index = 2

    submitted = []

    def fake_submit(pool, task):
        submitted.append(task)
        return Future()  # never completes; we only test dispatch decisions

    futures = {}
    try:
        sweeps_module.submit_task, saved = fake_submit, sweeps_module.submit_task
        run._dispatch_point(state, futures)
    finally:
        sweeps_module.submit_task = saved
    run.close()
    # 800 applied + 3 x 400 in flight reaches the cap: the fourth slot of
    # the 4-worker window stays empty
    assert sorted(index for _, index in futures.values()) == [2, 3, 4]
    assert state.unapplied == 3
    assert [t.shots for t in submitted] == [400] * 3
    assert state.next_index == 5


def test_run_sweep_rejects_negative_speculate(tmp_path):
    with pytest.raises(ValueError, match="speculate"):
        run_sweep(_spec(), ResultStore(tmp_path), speculate=-1)


def test_run_sweep_speculate_is_a_no_op_kept_at_zero_or_one(tmp_path):
    """The in-flight depth is ``workers``; ``speculate`` accepts only the
    two values that never changed it."""
    spec = _spec(taus_ns=(500.0,), policies=(PolicySpec("passive"),))
    for depth in (2, 4):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(spec, ResultStore(tmp_path / "bad"), workers=4, speculate=depth)
    assert not (tmp_path / "bad").exists()  # rejected before any write
    ref = oracle_records(spec)
    report = run_sweep(spec, ResultStore(tmp_path / "ok"), workers=1, speculate=1)
    assert {k: _scrub(r) for k, r in _records(report).items()} == ref


def test_speculative_interruption_checkpoints_partial_state(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    partial = run_sweep(spec, store, workers=2, batch_limit=2)
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

    for workers in (1, 4):  # inline and pool
        clear_pipeline_cache()
        store = ResultStore(tmp_path / f"a{workers}")
        # seed asymmetric progress so the cost order genuinely differs
        # from sweep order (the first point is part-done, costing less)
        seeded = run_sweep(spec, store, batch_limit=2)
        assert seeded.interrupted
        clear_pipeline_cache()
        report = run_sweep(spec, store, workers=workers)
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
    partial = run_sweep(spec, store, workers=2, batch_limit=4)
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
            run_sweep(spec, store, workers=workers, ledger=True)
    finally:
        _POISON = None

    # the ledger closed the run as an error
    ledger = RunLedger.for_store(store)
    rid = ledger.latest()
    assert rid is not None
    assert ledger.status(rid) == "error"
    # partial point records were checkpointed despite the crash
    assert any(store.get(k) is not None for k in clean)
    assert _no_batch_log(store)

    clear_pipeline_cache()
    resumed = run_sweep(spec, store, workers=workers)
    assert not resumed.interrupted
    got = {k: _scrub(r) for k, r in _records(resumed).items()}
    assert got == clean  # bit-identical to the uninterrupted run
    assert got == oracle_records(spec)
