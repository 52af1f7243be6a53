"""Sweep orchestration microbenchmark: resume reuse + warm-worker handoff.

Quantifies the two wins of the store-backed orchestrator
(:mod:`repro.experiments.sweeps`):

* **Resume / reuse** — a completed sweep re-invoked against its store decodes
  zero new shots and answers in a small fraction of the cold wall time; an
  interrupted sweep resumed from its checkpoint reproduces the uninterrupted
  numbers bit-for-bit while paying only for the missing batches.
* **Warm shard workers** — handing workers a serialized DEM
  (:class:`~repro.experiments.ler.PipelinePayload`) keeps the expensive
  circuit analysis in the coordinator: one analysis total, versus one per
  worker process on the cold path, versus ``num_shards`` units of decode
  work.  The benchmark asserts warm analyses < shards and < cold analyses.

Writes ``benchmarks/results/sweep_resume.json``.  Scaling knobs:
``REPRO_SWEEP_BENCH_SHOTS`` (per batch, default 4000) and
``REPRO_SWEEP_BENCH_BATCHES`` (default 4).
"""

import os
import time

from repro.core import make_policy
from repro.experiments.ler import (
    SurgeryLerConfig,
    clear_pipeline_cache,
    pipeline_payload,
)
from repro.experiments.parallel import reset_warm_state, run_sharded_ler
from repro.experiments.sweeps import PolicySpec, SweepSpec, run_sweep
from repro.noise import GOOGLE
from repro.store import ResultStore

from _helpers import bench_seed, record, run_once


def _spec(batch_shots: int, batches: int) -> SweepSpec:
    return SweepSpec(
        name="resume-bench",
        distances=(3,),
        taus_ns=(500.0, 1000.0),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        p=2e-3,
        seed=bench_seed(),
        batch_shots=batch_shots,
        min_shots=batch_shots,
        max_shots=batch_shots * batches,
    )


def _bench(batch_shots: int, batches: int, tmp_root) -> dict:
    spec = _spec(batch_shots, batches)
    n_points = len(spec.points())

    # cold end-to-end run
    reset_warm_state()
    clear_pipeline_cache()
    store = ResultStore(tmp_root / "full")
    t0 = time.perf_counter()
    cold = run_sweep(spec, store)
    cold_s = time.perf_counter() - t0
    assert cold.shots_decoded == n_points * batch_shots * batches

    # re-invocation: everything served from the store
    t0 = time.perf_counter()
    warm_rerun = run_sweep(spec, store)
    rerun_s = time.perf_counter() - t0
    assert warm_rerun.shots_decoded == 0, "completed sweep must decode nothing"

    # interrupt after 1/4 of the batches, then resume
    istore = ResultStore(tmp_root / "interrupted")
    reset_warm_state()
    interrupted = run_sweep(spec, istore, batch_limit=n_points * batches // 4)
    t0 = time.perf_counter()
    resumed = run_sweep(spec, istore, resume=True)
    resume_s = time.perf_counter() - t0
    ref = {o.key: o.record for o in cold.outcomes}
    for outcome in resumed.outcomes:
        assert outcome.record["failures"] == ref[outcome.key]["failures"]
        assert outcome.record["shots"] == ref[outcome.key]["shots"]

    # warm-worker handoff vs per-worker re-analysis on one sharded config
    cfg = SurgeryLerConfig(
        distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=500.0, p=2e-3
    )
    pol = make_policy("passive")
    num_shards, workers = 8, 2
    reset_warm_state()
    clear_pipeline_cache()
    cold_shard = run_sharded_ler(
        cfg, pol, batch_shots * 2, rng=1, num_shards=num_shards, max_workers=workers
    )
    cold_analyses = cold_shard.decode_stats["pipeline_analyses"]
    reset_warm_state()
    clear_pipeline_cache()
    payload = pipeline_payload(cfg, pol)  # the one (coordinator-side) analysis
    clear_pipeline_cache()
    warm_shard = run_sharded_ler(
        cfg,
        pol,
        batch_shots * 2,
        rng=1,
        num_shards=num_shards,
        max_workers=workers,
        payload=payload,
    )
    warm_worker_analyses = warm_shard.decode_stats["pipeline_analyses"]
    warm_total = warm_worker_analyses + 1  # + the coordinator's single analysis
    assert [e.successes for e in warm_shard.estimates] == [
        e.successes for e in cold_shard.estimates
    ]

    return {
        "config": {
            "points": n_points,
            "batch_shots": batch_shots,
            "batches_per_point": batches,
            "num_shards": num_shards,
            "shard_workers": workers,
        },
        "cold_sweep_seconds": cold_s,
        "store_rerun_seconds": rerun_s,
        "rerun_speedup": cold_s / rerun_s if rerun_s > 0 else float("inf"),
        "interrupted_shots": interrupted.shots_decoded,
        "resume_seconds": resume_s,
        "resume_shots": resumed.shots_decoded,
        "cold_shard_analyses": cold_analyses,
        "warm_shard_worker_analyses": warm_worker_analyses,
        "warm_shard_total_analyses": warm_total,
    }


def test_sweep_resume_and_warm_handoff(benchmark, tmp_path):
    batch_shots = int(os.environ.get("REPRO_SWEEP_BENCH_SHOTS", 4000))
    batches = int(os.environ.get("REPRO_SWEEP_BENCH_BATCHES", 4))
    row = run_once(benchmark, _bench, batch_shots, batches, tmp_path)
    print(
        f"\ncold sweep {row['cold_sweep_seconds']:.2f}s   "
        f"store re-run {row['store_rerun_seconds']:.3f}s "
        f"({row['rerun_speedup']:.0f}x)   "
        f"resume after interrupt {row['resume_seconds']:.2f}s   "
        f"analyses cold={row['cold_shard_analyses']} "
        f"warm={row['warm_shard_total_analyses']} "
        f"(shards={row['config']['num_shards']})"
    )
    record("sweep_resume", row)

    # the acceptance bar: re-running a finished sweep is essentially free,
    # and the warm handoff does measurably fewer analyses than shards
    assert row["store_rerun_seconds"] < row["cold_sweep_seconds"]
    assert row["warm_shard_worker_analyses"] == 0
    assert row["warm_shard_total_analyses"] < row["config"]["num_shards"]
    assert row["warm_shard_total_analyses"] <= row["cold_shard_analyses"]
