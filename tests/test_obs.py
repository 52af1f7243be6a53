"""The observability contract (docs/OBSERVABILITY.md).

Three families of guarantees:

* **Mergeable metrics** — :class:`repro.obs.LatencyHistogram` merge is
  associative and worker-count-independent (any partition of the same
  durations pools to the identical histogram), and survives the JSON
  round-trip bit-exactly.
* **Zero-cost when off** — disabled tracing hands back shared no-op
  singletons and never evaluates lazy span attributes.
* **Bit-neutrality** — tracing on vs. off changes nothing in predictions
  or stored records, at speculation depth 0 and 4 on 1 and 4 workers;
  decode threads record into the one recorder, one ``tid`` lane each.
"""

import json
import random
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
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _obs_disabled():
    # every test starts and ends with tracing off and env-undecided; tests
    # that want a recorder call obs.configure() themselves
    obs.reset()
    clear_pipeline_cache()
    yield
    obs.reset()
    clear_pipeline_cache()


# ---------------------------------------------------------------------------
# histograms: merge algebra + round-trip
# ---------------------------------------------------------------------------


def _durations(n=500, seed=7):
    rng = random.Random(seed)
    # span the bucket range: sub-bucket ns up through seconds + overflow
    return [rng.randrange(0, 2 * 10**12) for _ in range(n)]


def test_histogram_merge_is_associative():
    durs = _durations()
    parts = [durs[0:100], durs[100:350], durs[350:500]]
    hists = []
    for part in parts:
        h = obs.LatencyHistogram()
        for d in part:
            h.record_ns(d)
        hists.append(h)

    left = obs.LatencyHistogram().merge(hists[0]).merge(hists[1]).merge(hists[2])
    h01 = obs.LatencyHistogram().merge(hists[0]).merge(hists[1])
    right = obs.LatencyHistogram().merge(h01).merge(hists[2])
    assert left.to_dict() == right.to_dict()


def test_histogram_partition_independence():
    """The pooled histogram is identical for any worker count / split."""
    durs = _durations()
    reference = obs.LatencyHistogram()
    for d in durs:
        reference.record_ns(d)

    for k in (1, 2, 4, 8):
        merged = obs.LatencyHistogram()
        for w in range(k):
            part = obs.LatencyHistogram()
            for d in durs[w::k]:
                part.record_ns(d)
            merged.merge(part)
        assert merged.to_dict() == reference.to_dict(), f"k={k}"


def test_histogram_round_trip_and_percentiles():
    h = obs.LatencyHistogram()
    for d in (50, 150, 150, 10**6, 3 * 10**12):  # incl. overflow bucket
        h.record_ns(d)
    data = h.to_dict()
    back = obs.LatencyHistogram.from_dict(data)
    assert back.to_dict() == data
    assert data["count"] == 5 and sum(data["counts"]) == 5
    assert data["min_ns"] == 50 and data["max_ns"] == 3 * 10**12
    # overflow percentile resolves to the exact observed max
    assert h.percentile_ns(100) == 3 * 10**12
    # percentile never exceeds a real observation
    assert h.percentile_ns(50) <= data["max_ns"]
    # json round-trip (what the metrics file does) is exact: ints stay ints
    assert obs.LatencyHistogram.from_dict(json.loads(json.dumps(data))).to_dict() == data


def test_histogram_rejects_foreign_bounds_and_clamps_negatives():
    h = obs.LatencyHistogram()
    h.record_ns(-5)  # clock granularity can yield tiny negatives
    assert h.min_ns == 0 and h.count == 1
    other = obs.LatencyHistogram(bounds=(10, 100))
    with pytest.raises(ValueError):
        h.merge(other)
    with pytest.raises(ValueError):
        obs.LatencyHistogram(bounds=(100, 100))


# ---------------------------------------------------------------------------
# zero-overhead disabled path
# ---------------------------------------------------------------------------


def test_disabled_span_is_shared_noop_and_args_never_evaluated():
    assert not obs.enabled()
    s1 = obs.span("decode.kernel", lambda: pytest.fail("args evaluated while off"))
    s2 = obs.span("ler.sample")
    assert s1 is s2  # one shared singleton, no per-span allocation
    with s1:
        pass
    obs.count("sweep.batches_dispatched")  # all no-ops
    obs.event("sweep.overshoot", lambda: pytest.fail("args evaluated while off"))
    assert obs.active() is None


def test_lazy_args_evaluated_exactly_once_when_enabled():
    obs.configure()
    calls = []
    with obs.span("decode.kernel", lambda: calls.append(1) or {"rows": 3}):
        pass
    assert calls == [1]
    (ev,) = obs.active().events
    assert ev["name"] == "decode.kernel" and ev["args"] == {"rows": 3}
    assert ev["dur"] >= 0 and isinstance(ev["ts"], int)


def test_env_activation_and_reset(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.json"))
    obs.reset()
    assert obs.enabled()
    assert obs.active().trace_path == str(tmp_path / "t.json")
    monkeypatch.delenv("REPRO_TRACE")
    assert obs.enabled()  # env is resolved once, not per call
    obs.reset()
    assert not obs.enabled()


def test_stopwatch_runs_without_recorder():
    assert not obs.enabled()
    with obs.stopwatch() as sw:
        sum(range(1000))
    assert sw.ns > 0
    assert sw.seconds == sw.ns / 1e9


# ---------------------------------------------------------------------------
# exporters: trace + metrics round-trips
# ---------------------------------------------------------------------------


def test_trace_file_round_trip(tmp_path):
    obs.configure(trace_path=tmp_path / "t.json")
    with obs.span("decode.kernel", {"rows": 7}):
        pass
    obs.event("sweep.overshoot")
    obs.count("sweep.batches_dispatched", 3)
    path = obs.write_trace()

    doc = json.loads((tmp_path / "t.json").read_text())
    assert path == str(tmp_path / "t.json")
    assert doc["schema"] == obs.TRACE_SCHEMA
    assert doc["counters"] == {"sweep.batches_dispatched": 3}
    phases = {ev["name"]: ev["ph"] for ev in doc["traceEvents"]}
    assert phases == {"decode.kernel": "X", "sweep.overshoot": "i"}
    assert min(ev["ts"] for ev in doc["traceEvents"]) == 0  # normalized

    events = obs.load_trace(tmp_path / "t.json")
    rows = obs.summarize(events)
    assert [r["name"] for r in rows] == ["decode.kernel", "sweep.overshoot"]
    table = obs.format_summary(rows)
    assert "decode.kernel" in table and "p99_us" in table
    # bare-array form (what chrome devtools sometimes saves) also loads
    (tmp_path / "bare.json").write_text(json.dumps(doc["traceEvents"]))
    assert [e["name"] for e in obs.load_trace(tmp_path / "bare.json")] == [
        e["name"] for e in events
    ]


def test_load_trace_rejects_non_trace_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        obs.load_trace(bad)
    bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
    with pytest.raises(ValueError):
        obs.load_trace(bad)


def test_metrics_file_round_trip(tmp_path):
    rec = obs.configure(metrics_path=tmp_path / "m.json")
    for _ in range(4):
        with obs.span("decode.kernel"):
            pass
    obs.count("sweep.batches_applied")
    obs.write_metrics()

    data = obs.load_metrics(tmp_path / "m.json")
    assert data["schema"] == obs.METRICS_SCHEMA
    hist = data["histograms"]["decode.kernel"]
    assert hist["count"] == 4 and sum(hist["counts"]) == 4
    assert data["counters"] == {"sweep.batches_applied": 1}
    # snapshot equals what an in-process reader computes
    assert data == json.loads(json.dumps(obs.metrics_snapshot(rec)))


def test_write_trace_requires_recorder_and_path(tmp_path):
    with pytest.raises(RuntimeError):
        obs.write_trace()
    obs.configure()  # path-less recorder
    with pytest.raises(ValueError):
        obs.write_trace()
    obs.write_trace(tmp_path / "explicit.json")  # explicit path still works
    assert (tmp_path / "explicit.json").exists()


# ---------------------------------------------------------------------------
# the pipeline contract: tracing on/off is bit-identical
# ---------------------------------------------------------------------------


def _spec():
    return SweepSpec(
        name="obs-parity",
        distances=(2,),
        taus_ns=(500.0, 1000.0),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        seed=11,
        batch_shots=400,
        min_shots=400,
        max_shots=1200,
        target_rse=0.12,
        p=5e-3,
    )


def _records(report):
    return {o.key: o.record for o in report.outcomes}


def test_tracing_bit_identity_across_schedulers(tmp_path):
    """{--speculate 0, --speculate 4} x {1, 4 workers}, traced vs. untraced."""
    spec = _spec()
    reference = _records(run_sweep(spec, ResultStore(tmp_path / "ref")))
    assert not obs.enabled()  # the reference run really was untraced

    for speculate in (0, 4):
        for workers in (1, 4):
            clear_pipeline_cache()
            obs.configure()
            try:
                report = run_sweep(
                    spec,
                    ResultStore(tmp_path / f"s{speculate}w{workers}"),
                    workers=workers,
                    speculate=speculate,
                )
                events = list(obs.active().events)
            finally:
                obs.reset()
            got = _records(report)
            assert got.keys() == reference.keys()
            for key, ref in reference.items():
                assert record_parity_view(got[key]) == record_parity_view(ref), (
                    f"speculate={speculate} workers={workers}"
                )
            assert events, f"speculate={speculate} workers={workers}: no spans"


def test_pipeline_spans_merge_across_decode_threads(tmp_path):
    """Decode threads record straight into the one recorder, one lane each."""
    spec = _spec()
    obs.configure()
    try:
        run_sweep(spec, ResultStore(tmp_path / "s"), workers=2, speculate=2)
        events = list(obs.active().events)
        counters = dict(obs.active().counters)
    finally:
        obs.reset()

    kinds = {ev["name"] for ev in events}
    # decode-side spans recorded on the decode threads ...
    assert {"ler.sample", "decode.kernel", "store.commit"} <= kinds
    # ... and coordinator-side scheduler spans, in the same buffer
    assert {"sweep.dispatch", "sweep.idle"} <= kinds
    assert "sweep.apply" in kinds or "sweep.replay" in kinds
    # one process; every kernel span sits on a decode thread's lane, and
    # the scheduler's spans on the coordinator's
    main = threading.get_ident()
    assert {ev["tid"] for ev in events if ev["name"] == "sweep.dispatch"} == {main}
    kernel_tids = {ev["tid"] for ev in events if ev["name"] == "decode.kernel"}
    assert kernel_tids and main not in kernel_tids
    trace = obs.chrome_trace(events)
    assert {ev["tid"] for ev in trace["traceEvents"]} >= kernel_tids | {main}
    # no span lost to a racing append: every dispatched batch decoded once
    assert len(
        [ev for ev in events if ev["name"] == "decode.kernel"]
    ) == counters["sweep.batches_dispatched"]
    assert counters["sweep.batches_dispatched"] > 0
    # the scheduler-triage shape the speculation benchmark records
    phases = obs.phase_totals(events)
    assert phases["sweep.dispatch"]["count"] == counters["sweep.batches_dispatched"]


def test_trace_keys_never_reach_stored_records(tmp_path):
    """A traced threaded sweep stores no span field and no worker name."""
    from repro.experiments.ler import BATCH_STAT_KEYS

    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys(v)
        elif isinstance(node, list):
            for v in node:
                yield from keys(v)

    spec = _spec()
    store = ResultStore(tmp_path / "s")
    obs.configure()
    try:
        report = run_sweep(spec, store, workers=2, speculate=2)
        assert obs.active().events
    finally:
        obs.reset()
    trace_keys = {"ts", "dur", "pid", "tid", "args", "worker"}
    for key, record in _records(report).items():
        assert set(record["decode_stats"]) == set(BATCH_STAT_KEYS)
        assert not trace_keys & set(keys(record))
        for index in store.batch_indices(key):
            batch = store.get_batch(key, index)
            assert set(batch["decode_stats"]) == set(BATCH_STAT_KEYS)
            assert not trace_keys & set(keys(batch))
        assert "repro-decode" not in json.dumps(record)


def test_cold_pipeline_records_analysis_spans_and_predicts_identically():
    """A cold analysis nests circuit/dem/graph under ``ler.analyze``; tracing
    it changes neither the model nor a single prediction."""
    import numpy as np

    from repro.core.policies import make_policy
    from repro.decoders.batch import decode_batch_dedup
    from repro.experiments.ler import (
        SurgeryLerConfig,
        clear_pipeline_cache,
        prepared_pipeline,
    )

    config = SurgeryLerConfig(distance=3, hardware=GOOGLE, policy_name="active", tau_ns=500.0)

    def analyze_and_decode():
        clear_pipeline_cache()
        pipe = prepared_pipeline(config, make_policy("active"))
        det, _ = pipe.sampler.sample(400, rng=5)
        return pipe, decode_batch_dedup(pipe.decoder("unionfind"), pipe.mask_detectors(det))

    untraced_pipe, untraced = analyze_and_decode()
    obs.configure()
    try:
        traced_pipe, traced = analyze_and_decode()
        cold = list(obs.active().events)
    finally:
        obs.reset()
        clear_pipeline_cache()

    assert traced_pipe.dem.errors == untraced_pipe.dem.errors
    assert np.array_equal(traced, untraced)

    (parent,) = [e for e in cold if e["name"] == "ler.analyze"]
    children = [e for e in cold if e["name"].startswith("ler.analyze.")]
    assert sorted(e["name"] for e in children) == [
        "ler.analyze.circuit",
        "ler.analyze.dem",
        "ler.analyze.graph",
    ]
    for child in children:
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
