"""The run-ledger contract (docs/OBSERVABILITY.md, `repro.obs.ledger`).

Four families of guarantees:

* **Bit-neutrality** — the ledger records *about* a sweep without touching
  it: stored point records are byte-identical with the ledger on vs. off,
  on 0, 1, 2 and 4 workers, and
  a ledger-off run leaves no ``runs/`` directory at all.
* **Accounting** — ledger batch events are emitted at exactly the sites
  where the sweep report's counters increment, so totals always agree.
* **Crash tolerance** — the event log is append-only; a torn tail line
  (process killed mid-append) is skipped by every reader, never fatal.
* **Worker provenance** — every decoded batch names the thread that
  decoded it: a ``repro-decode`` pool thread at ``workers > 1``, the
  calling thread on the inline executor.
"""

import json
import os
import threading

import pytest

from repro import obs
from repro.experiments.ler import clear_pipeline_cache
from repro.experiments.sweeps import (
    PolicySpec,
    SweepSpec,
    record_parity_view,
    run_sweep,
)
from repro.noise import GOOGLE
from repro.obs import RunLedger, RunWriter, sweep_manifest, watch_snapshot
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    # ledger decisions must come from the test, not the ambient environment
    monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
    obs.reset()
    clear_pipeline_cache()
    yield
    obs.reset()
    clear_pipeline_cache()


def _spec(**overrides):
    base = dict(
        name="ledger-parity",
        distances=(2,),
        taus_ns=(500.0,),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        seed=11,
        batch_shots=400,
        min_shots=400,
        max_shots=1200,
        target_rse=0.12,
        p=5e-3,
    )
    base.update(overrides)
    return SweepSpec(**base)


def _records(report):
    return {o.key: o.record for o in report.outcomes}


def _pinned_writer(store, spec, **kwargs):
    """A RunWriter with heartbeats always-on (interval 0) for inspection."""
    return RunWriter(
        store.runs_root,
        sweep_manifest(spec, **kwargs),
        heartbeat_interval=0.0,
    )


# ---------------------------------------------------------------------------
# bit-neutrality: ledger on/off, across both schedulers
# ---------------------------------------------------------------------------


def test_ledger_bit_neutral_across_schedulers(tmp_path):
    """{ledger on, off} x {0, 1, 2, 4 workers}."""
    spec = _spec()
    store_ref = ResultStore(tmp_path / "ref")
    reference = _records(run_sweep(spec, store_ref, ledger=False))
    assert not store_ref.runs_root.exists()  # off really writes nothing

    for workers in (0, 1, 2, 4):
        clear_pipeline_cache()
        store = ResultStore(tmp_path / f"w{workers}")
        report = run_sweep(spec, store, workers=workers, ledger=True)
        got = _records(report)
        assert got.keys() == reference.keys()
        for key, ref in reference.items():
            assert record_parity_view(got[key]) == record_parity_view(ref), (
                f"workers={workers}"
            )
        # the run really was recorded
        ledger = RunLedger.for_store(store)
        assert ledger.run_ids() == [report.run_id]
        names = [ev["ev"] for ev in ledger.events(report.run_id)]
        assert names[0] == "run_start" and names[-1] == "run_finish"


def test_ledger_env_knob_disables_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_LEDGER", "0")
    store = ResultStore(tmp_path / "s")
    report = run_sweep(_spec(max_shots=400), store)  # ledger=None -> env
    assert report.run_id is None
    assert not store.runs_root.exists()


def test_ledger_data_never_reaches_point_records(tmp_path):
    """On-disk store diff: everything except runs/ identical with ledger on/off."""
    spec = _spec(max_shots=800)
    stores = {}
    for tag, ledger in (("on", True), ("off", False)):
        clear_pipeline_cache()
        store = ResultStore(tmp_path / tag)
        run_sweep(spec, store, ledger=ledger)
        stores[tag] = store

    def payload(store):
        out = {}
        for path in sorted(store.root.rglob("*.json")):
            rel = path.relative_to(store.root)
            if rel.parts[0] == "runs":
                continue
            # strip the wall-clock/scheduling-dependent fields parity
            # ignores (decode_seconds, per-worker cache splits, ...)
            out[str(rel)] = record_parity_view(json.loads(path.read_text()))
        return out

    assert payload(stores["on"]) == payload(stores["off"])
    assert (stores["on"].root / "runs").exists()
    assert not (stores["off"].root / "runs").exists()


# ---------------------------------------------------------------------------
# accounting: ledger totals == report counters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_ledger_batch_events_match_report_counters(tmp_path, workers):
    spec = _spec()
    store = ResultStore(tmp_path / "s")
    writer = _pinned_writer(store, spec, workers=workers)
    report = run_sweep(spec, store, workers=workers, ledger=writer)
    events = RunLedger.for_store(store).events(report.run_id)
    kinds = {"decoded": 0, "overshoot": 0}
    shots = 0
    for ev in events:
        if ev["ev"] == "batch":
            kinds[ev["kind"]] += 1
            if ev["kind"] == "decoded":
                shots += ev["shots"]
    assert kinds["decoded"] == report.batches_decoded
    assert kinds["overshoot"] == report.batches_overshoot
    assert shots == report.shots_decoded
    converged = [ev for ev in events if ev["ev"] == "point_converged"]
    assert len(converged) == len(report.outcomes)
    assert any(ev["ev"] == "heartbeat" for ev in events)  # interval pinned to 0


def test_store_served_points_are_ledgered_not_decoded(tmp_path):
    spec = _spec(max_shots=400)
    store = ResultStore(tmp_path / "s")
    run_sweep(spec, store, ledger=False)
    writer = _pinned_writer(store, spec)
    report = run_sweep(spec, store, ledger=writer)
    events = RunLedger.for_store(store).events(report.run_id)
    names = [ev["ev"] for ev in events]
    assert names.count("point_store_served") == len(report.outcomes)
    assert "batch" not in names and "point_start" not in names


# ---------------------------------------------------------------------------
# manifest + reader surface
# ---------------------------------------------------------------------------


def test_manifest_captures_run_provenance(tmp_path, monkeypatch):
    from repro.decoders import kernels

    monkeypatch.setenv("REPRO_RUN_LEDGER", "1")
    spec = _spec(max_shots=400)
    store = ResultStore(tmp_path / "s")
    report = run_sweep(spec, store, workers=1, ledger=True)
    ledger = RunLedger.for_store(store)
    manifest = ledger.manifest(report.run_id)
    assert manifest["schema"] == "repro.obs.run/v2"
    assert manifest["sweep"] == spec.name
    assert manifest["workers"] == 1 and "speculate" not in manifest
    assert manifest["seed"] == spec.seed
    assert len(manifest["spec_digest"]) == 64
    assert manifest["store_salt"]  # pinned to the store's key salt
    # the decode path that ran, and nothing about paths that did not
    assert manifest["backend_resolved"] == kernels.backend()
    assert not {"backend", "backend_capabilities", "backends_available"} & set(manifest)
    assert manifest["env"]["REPRO_RUN_LEDGER"] == "1"
    # finished manifests carry the outcome
    assert manifest["status"] == "ok"
    assert manifest["summary"]["points"] == len(report.outcomes)
    assert ledger.status(report.run_id) == "ok"
    # same spec, two launches -> two distinct sortable run ids
    report2 = run_sweep(spec, store, ledger=True)
    assert report2.run_id != report.run_id
    assert ledger.run_ids() == sorted(ledger.run_ids())


def test_watch_snapshot_reports_progress_and_totals(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path / "s")
    writer = _pinned_writer(store, spec)
    report = run_sweep(spec, store, ledger=writer)
    snap = watch_snapshot(store, report.run_id)
    assert snap["run_id"] == report.run_id
    assert snap["status"] == "ok"
    assert snap["points_expected"] == len(report.outcomes)
    assert {p["status"] for p in snap["points"]} == {"converged"}
    for p in snap["points"]:
        assert p["shots"] >= spec.min_shots
        assert p["batches"] >= 1
        assert "d=2" in p["label"]
    assert snap["totals"]["decoded"] == report.batches_decoded
    assert snap["eta_s"] is None  # finished runs advertise no ETA


def test_gc_prunes_on_age_and_respects_dry_run(tmp_path):
    spec = _spec(max_shots=400)
    store = ResultStore(tmp_path / "s")
    run_sweep(spec, store, ledger=True)
    ledger = RunLedger.for_store(store)
    (rid,) = ledger.run_ids()
    finished = ledger.manifest(rid)["finished_at"]

    kept = ledger.gc(older_than_seconds=3600.0, now=finished + 10.0)
    assert kept["removed"] == [] and kept["kept"] == 1

    dry = ledger.gc(older_than_seconds=5.0, now=finished + 10.0, dry_run=True)
    assert dry["removed"] == [rid] and dry["dry_run"]
    assert ledger.run_ids() == [rid]  # dry run deleted nothing

    wet = ledger.gc(older_than_seconds=5.0, now=finished + 10.0)
    assert wet["removed"] == [rid]
    assert ledger.run_ids() == []


# ---------------------------------------------------------------------------
# crash tolerance: torn tail lines
# ---------------------------------------------------------------------------


def test_truncated_event_tail_is_skipped_not_fatal(tmp_path):
    spec = _spec(max_shots=400)
    store = ResultStore(tmp_path / "s")
    report = run_sweep(spec, store, ledger=True)
    ledger = RunLedger.for_store(store)
    before = ledger.events(report.run_id)

    events_path = store.runs_root / report.run_id / "events.jsonl"
    with open(events_path, "a") as f:
        f.write('{"ev": "heartbeat", "t": 99.9, "pi')  # killed mid-append

    after = ledger.events(report.run_id)
    assert after == before  # torn tail skipped, everything else intact
    assert ledger.status(report.run_id) == "ok"
    snap = watch_snapshot(store, report.run_id)
    assert snap["status"] == "ok"


def test_crashed_run_reads_as_running(tmp_path):
    """A writer that never finishes (process died) is visible, not broken."""
    spec = _spec(max_shots=400)
    store = ResultStore(tmp_path / "s")
    writer = _pinned_writer(store, spec)
    writer.point_start("k" * 64, config={"d": 2, "tau_ns": 500.0}, shots=0)
    writer.batch("k" * 64, 0, 400, "decoded", worker="repro-decode_0")
    # no finish(): simulate a crash
    ledger = RunLedger.for_store(store)
    assert ledger.status(writer.run_id) == "running"
    manifest = ledger.manifest(writer.run_id)
    assert manifest["status"] == "running"
    assert "finished_at" not in manifest
    names = [ev["ev"] for ev in ledger.events(writer.run_id)]
    assert names[0] == "run_start" and "run_finish" not in names


# ---------------------------------------------------------------------------
# worker provenance: which thread decoded each batch
# ---------------------------------------------------------------------------


def test_thread_workers_report_spans_and_names(tmp_path):
    """workers=2 decodes on the repro-decode thread pool: every decoded
    batch names a pool thread, never the main thread; the threads' kernel
    spans land in the one recorder; records equal an inline reference."""
    spec = _spec(policies=(PolicySpec("passive"),), max_shots=800)
    obs.configure(trace_path=tmp_path / "t.json")
    store = ResultStore(tmp_path / "s")
    writer = _pinned_writer(store, spec, workers=2)
    try:
        report = run_sweep(spec, store, workers=2, ledger=writer)
        events = list(obs.active().events)
    finally:
        obs.reset()

    kernels = [ev for ev in events if ev["name"] == "decode.kernel"]
    assert kernels
    assert threading.get_ident() not in {ev["tid"] for ev in kernels}

    ledger_events = RunLedger.for_store(store).events(report.run_id)
    decoded = [
        ev for ev in ledger_events
        if ev["ev"] == "batch" and ev["kind"] == "decoded"
    ]
    assert decoded
    main = threading.main_thread().name
    for ev in decoded:
        assert ev["worker"].startswith("repro-decode") and ev["worker"] != main
    assert report.batches_decoded == len(decoded)

    clear_pipeline_cache()
    reference = _records(run_sweep(spec, ResultStore(tmp_path / "ref"), ledger=False))
    got = _records(report)
    assert got.keys() == reference.keys()
    for key, ref in reference.items():
        assert record_parity_view(got[key]) == record_parity_view(ref)


def test_inline_executor_reports_coordinator_pid_provenance(tmp_path):
    """workers<=1 runs the inline executor: every decoded batch must name
    the calling (main) thread as provenance (no decode thread ever exists),
    spans must still record, and parity with the default run must hold."""
    spec = _spec(policies=(PolicySpec("passive"),), max_shots=800)
    obs.reset()
    obs.configure(trace_path=tmp_path / "t.json")
    store = ResultStore(tmp_path / "s")
    writer = _pinned_writer(store, spec, workers=0)
    try:
        report = run_sweep(spec, store, workers=0, ledger=writer)
        events = list(obs.active().events)
    finally:
        obs.reset()

    # inline tasks run on the calling thread, so spans land on its lane
    assert {"decode.kernel", "sweep.dispatch"} <= {ev["name"] for ev in events}
    assert {ev["pid"] for ev in events} == {os.getpid()}
    assert {ev["tid"] for ev in events} == {threading.get_ident()}

    ledger_events = RunLedger.for_store(store).events(report.run_id)
    decoded = [
        ev for ev in ledger_events
        if ev["ev"] == "batch" and ev["kind"] == "decoded"
    ]
    assert decoded
    assert {ev["worker"] for ev in decoded} == {threading.main_thread().name}
    assert report.batches_decoded == len(decoded)

    clear_pipeline_cache()
    reference = _records(run_sweep(spec, ResultStore(tmp_path / "ref"), ledger=False))
    got = _records(report)
    assert got.keys() == reference.keys()
    for key, ref in reference.items():
        assert record_parity_view(got[key]) == record_parity_view(ref)


def test_estimate_point_cost_shared_model():
    from repro.obs.ledger import estimate_point_cost

    # fresh point: every batch remains
    assert estimate_point_cost(0, 2000, 400) == {
        "batches_remaining": 5, "new_shots": 2000,
    }
    # partial: the batches from the applied prefix to the cap
    assert estimate_point_cost(800, 2000, 400) == {
        "batches_remaining": 3, "new_shots": 1200,
    }
    # a cap that is not a batch multiple: the final batch overshoots it
    assert estimate_point_cost(1700, 2000, 400) == {
        "batches_remaining": 1, "new_shots": 400,
    }
    # converged / at or past the cap: nothing left, never negative
    for shots in (2000, 2400):
        assert estimate_point_cost(shots, 2000, 400) == {
            "batches_remaining": 0, "new_shots": 0,
        }
