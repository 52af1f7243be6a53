"""Sweep orchestration microbenchmark: resume reuse + warm-worker handoff.

Quantifies the two wins of the store-backed orchestrator
(:mod:`repro.experiments.sweeps`):

* **Resume / reuse** — a completed sweep re-invoked against its store decodes
  zero new shots and answers in a small fraction of the cold wall time; an
  interrupted sweep resumed from its checkpoint reproduces the uninterrupted
  numbers bit-for-bit while paying only for the missing batches.
* **Warm hand-off** — a pooled sweep hands its workers a serialized DEM
  (:class:`~repro.experiments.ler.PipelinePayload`), which keeps the
  expensive circuit analysis in the coordinator: one point decoded as
  several batches on a 2-process pool costs one analysis in the
  coordinator and none in the workers.

Writes ``benchmarks/results/sweep_resume.json``.  Scaling knobs:
``REPRO_SWEEP_BENCH_SHOTS`` (per batch, default 4000) and
``REPRO_SWEEP_BENCH_BATCHES`` (default 4).
"""

import dataclasses
import os
import time

from repro.experiments.ler import clear_pipeline_cache
from repro.experiments.parallel import reset_warm_state
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

    # warm hand-off: one point, several batches, a 2-process pool
    workers = 2
    one_point = dataclasses.replace(
        spec, taus_ns=spec.taus_ns[:1], policies=spec.policies[:1]
    )
    reset_warm_state()
    clear_pipeline_cache()
    t0 = time.perf_counter()
    handoff = run_sweep(one_point, ResultStore(tmp_root / "handoff"), workers=workers)
    handoff_s = time.perf_counter() - t0
    assert handoff.batches_decoded == batches

    return {
        "config": {
            "points": n_points,
            "batch_shots": batch_shots,
            "batches_per_point": batches,
            "handoff_workers": workers,
        },
        "cold_sweep_seconds": cold_s,
        "store_rerun_seconds": rerun_s,
        "rerun_speedup": cold_s / rerun_s if rerun_s > 0 else float("inf"),
        "interrupted_shots": interrupted.shots_decoded,
        "resume_seconds": resume_s,
        "resume_shots": resumed.shots_decoded,
        "handoff_seconds": handoff_s,
        "handoff_parent_analyses": handoff.analyses_parent,
        "handoff_worker_analyses": handoff.analyses_workers,
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
        f"warm hand-off x{row['config']['handoff_workers']} workers "
        f"{row['handoff_seconds']:.2f}s, analyses "
        f"parent={row['handoff_parent_analyses']} "
        f"workers={row['handoff_worker_analyses']}"
    )
    record("sweep_resume", row)

    # the acceptance bar: re-running a finished sweep is essentially free,
    # and pool workers never re-analyze a configuration they were handed
    assert row["store_rerun_seconds"] < row["cold_sweep_seconds"]
    assert row["handoff_worker_analyses"] == 0
    assert row["handoff_parent_analyses"] == 1
