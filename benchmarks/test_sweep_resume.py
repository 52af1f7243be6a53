"""Sweep orchestration microbenchmark: resume reuse + one analysis per point.

Quantifies the two wins of the store-backed orchestrator
(:mod:`repro.experiments.sweeps`):

* **Resume / reuse** — a completed sweep re-invoked against its store decodes
  zero new shots and answers in a small fraction of the cold wall time; an
  interrupted sweep resumed from its checkpoint reproduces the uninterrupted
  numbers bit-for-bit while paying only for the missing batches.
* **One analysis** — every batch task carries the coordinator's analyzed
  pipeline: one point decoded as several batches on 2 decode threads
  costs exactly one circuit analysis.

Writes ``benchmarks/results/sweep_resume.json`` for :data:`BATCHES`
batches of :data:`BATCH_SHOTS` shots per point.
"""

import dataclasses
import time

from repro.experiments.ler import clear_pipeline_cache
from repro.experiments.sweeps import PolicySpec, SweepSpec, run_sweep
from repro.figures.bench import record, run_once
from repro.noise import GOOGLE
from repro.store import ResultStore

SEED = 2025
#: shots per batch
BATCH_SHOTS = 4000
#: batches per point
BATCHES = 4


def _spec(batch_shots: int, batches: int) -> SweepSpec:
    return SweepSpec(
        name="resume-bench",
        distances=(3,),
        taus_ns=(500.0, 1000.0),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        p=2e-3,
        seed=SEED,
        batch_shots=batch_shots,
        min_shots=batch_shots,
        max_shots=batch_shots * batches,
    )


def _bench(batch_shots: int, batches: int, tmp_root) -> dict:
    spec = _spec(batch_shots, batches)
    n_points = len(spec.points())

    # cold end-to-end run
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
    interrupted = run_sweep(spec, istore, batch_limit=n_points * batches // 4)
    t0 = time.perf_counter()
    resumed = run_sweep(spec, istore, resume=True)
    resume_s = time.perf_counter() - t0
    ref = {o.key: o.record for o in cold.outcomes}
    for outcome in resumed.outcomes:
        assert outcome.record["failures"] == ref[outcome.key]["failures"]
        assert outcome.record["shots"] == ref[outcome.key]["shots"]

    # one point, several batches, 2 decode threads
    workers = 2
    one_point = dataclasses.replace(
        spec, taus_ns=spec.taus_ns[:1], policies=spec.policies[:1]
    )
    clear_pipeline_cache()
    t0 = time.perf_counter()
    threaded = run_sweep(one_point, ResultStore(tmp_root / "threads"), workers=workers)
    threaded_s = time.perf_counter() - t0
    assert threaded.batches_decoded == batches

    return {
        "config": {
            "points": n_points,
            "batch_shots": batch_shots,
            "batches_per_point": batches,
            "threads": workers,
        },
        "cold_sweep_seconds": cold_s,
        "store_rerun_seconds": rerun_s,
        "rerun_speedup": cold_s / rerun_s if rerun_s > 0 else float("inf"),
        "interrupted_shots": interrupted.shots_decoded,
        "resume_seconds": resume_s,
        "resume_shots": resumed.shots_decoded,
        "threads_seconds": threaded_s,
        "threads_analyses": threaded.analyses_parent,
    }


def test_sweep_resume_and_warm_handoff(benchmark, tmp_path):
    row = run_once(benchmark, _bench, BATCH_SHOTS, BATCHES, tmp_path)
    print(
        f"\ncold sweep {row['cold_sweep_seconds']:.2f}s   "
        f"store re-run {row['store_rerun_seconds']:.3f}s "
        f"({row['rerun_speedup']:.0f}x)   "
        f"resume after interrupt {row['resume_seconds']:.2f}s   "
        f"one point on {row['config']['threads']} decode threads "
        f"{row['threads_seconds']:.2f}s, analyses={row['threads_analyses']}"
    )
    record("sweep_resume", row)

    # the acceptance bar: re-running a finished sweep is essentially free,
    # and a point decoded on several threads is analyzed exactly once
    assert row["store_rerun_seconds"] < row["cold_sweep_seconds"]
    assert row["threads_analyses"] == 1
