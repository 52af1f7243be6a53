"""Sweep scheduler microbenchmark: inline executor vs speculative threads.

Every sweep runs through one scheduler
(:func:`repro.experiments.sweeps.run_sweep`).  The baseline is the inline
run — ``run_sweep(spec, store)``: one thread, one batch in flight.  The
measured run keeps a pool of ``workers`` decode threads saturated: points
interleave, and up to ``depth`` batches per point decode while the
stopping rule is still evaluating earlier ones.

This benchmark runs the same >= 4-point adaptive (``target_rse``) sweep
both ways, asserts the stored records are bit-identical (the scheduler
parity invariant), and records the wall-clock comparison in
``benchmarks/results/sweep_speculation.json``.

Timing *ratios are recorded, never asserted* — machine variance is ~±15%
and CI runners are noisy; the hard gate is parity, the numbers are for the
humans reading the results directory (docs/CI.md explains the policy).

On hosts without real parallelism :data:`WORKERS` drops to 1, which
selects the inline executor for the speculative run as well.
"""

import os
import time

import pytest

from repro import obs
from repro.experiments.ler import clear_pipeline_cache
from repro.experiments.sweeps import (
    PolicySpec,
    SweepSpec,
    record_parity_view,
    run_sweep,
)
from repro.figures.bench import record, run_once
from repro.noise import GOOGLE
from repro.store import ResultStore

pytestmark = pytest.mark.slow

SEED = 2025
#: shots per batch
BATCH_SHOTS = 2000
#: decode threads of the speculative run: a pool cannot win on a single
#: core, so one core selects the inline executor
WORKERS = min(4, os.cpu_count() or 1)
#: speculation depth of the speculative run
DEPTH = 4


def _spec(batch_shots: int) -> SweepSpec:
    # d=5 batches are decode-bound (dispatch overhead is negligible against
    # them), and the d=3/d=5 mix makes point runtimes uneven — which
    # is exactly where interleaving points pays off
    return SweepSpec(
        name="speculation-bench",
        distances=(3, 5),
        taus_ns=(500.0, 1000.0),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        p=2e-3,
        seed=SEED,
        batch_shots=batch_shots,
        min_shots=batch_shots,
        max_shots=batch_shots * 8,
        target_rse=0.1,
    )


def _timed_sweep(spec, store, **kwargs):
    clear_pipeline_cache()
    t0 = time.perf_counter()
    report = run_sweep(spec, store, **kwargs)
    return report, time.perf_counter() - t0


def _bench(batch_shots: int, workers: int, depth: int, tmp_root) -> dict:
    spec = _spec(batch_shots)
    n_points = len(spec.points())
    assert n_points >= 4

    serial, serial_s = _timed_sweep(spec, ResultStore(tmp_root / "serial"))
    # the speculative run records obs spans (no trace/metrics files — just
    # the in-memory recorder) so the result row can say where the time went:
    # dispatch vs apply vs idle (docs/OBSERVABILITY.md).  Tracing is
    # bit-neutral, so the parity gate below still compares against the
    # untraced inline reference.
    obs.configure()
    try:
        speculative, speculative_s = _timed_sweep(
            spec, ResultStore(tmp_root / "spec"), workers=workers, speculate=depth
        )
        phases = obs.phase_totals()
    finally:
        obs.reset()

    ref = {o.key: record_parity_view(o.record) for o in serial.outcomes}
    parity_ok = all(
        record_parity_view(o.record) == ref[o.key] for o in speculative.outcomes
    )

    return {
        "config": {
            "points": n_points,
            "batch_shots": batch_shots,
            "max_batches_per_point": 8,
            "target_rse": spec.target_rse,
            "workers": workers,
            "speculate_depth": depth,
            "executor": "inline" if workers <= 1 else "threads",
            # threads cannot beat the inline run on a single core; readers
            # need this to interpret the recorded ratio
            "cpu_count": os.cpu_count(),
        },
        "serial_seconds": serial_s,
        "speculative_seconds": speculative_s,
        # recorded, not asserted: see the module docstring / docs/CI.md
        "speedup": serial_s / speculative_s if speculative_s > 0 else 0.0,
        "shots_decoded": speculative.shots_decoded,
        "batches_overshoot": speculative.batches_overshoot,
        "parity_ok": parity_ok,
        # per-span-kind totals of the speculative run (count/total_s/mean_us/
        # p50/p95/p99): sweep.dispatch vs sweep.apply vs sweep.idle is the
        # scheduler-regression triage breakdown
        "phases": phases,
    }


def test_speculative_scheduler_throughput(benchmark, tmp_path):
    row = run_once(benchmark, _bench, BATCH_SHOTS, WORKERS, DEPTH, tmp_path)
    print(
        f"\ninline {row['serial_seconds']:.2f}s   "
        f"x{row['config']['workers']} workers speculative depth "
        f"{row['config']['speculate_depth']} "
        f"{row['speculative_seconds']:.2f}s   "
        f"speedup {row['speedup']:.2f}x   "
        f"overshoot {row['batches_overshoot']} batches"
    )
    idle = row["phases"].get("sweep.idle", {}).get("total_s", 0.0)
    dispatch = row["phases"].get("sweep.dispatch", {}).get("total_s", 0.0)
    apply_s = row["phases"].get("sweep.apply", {}).get("total_s", 0.0)
    print(
        f"phases: dispatch {dispatch:.3f}s   apply {apply_s:.3f}s   "
        f"idle {idle:.3f}s"
    )
    record("sweep_speculation", row)

    # the hard gate is bit-identity; wall-clock ratios are informational
    assert row["parity_ok"]
    assert row["shots_decoded"] > 0
    # the span recorder must have seen the scheduler at work (totals are
    # informational, presence is not)
    assert row["phases"].get("sweep.dispatch", {}).get("count", 0) > 0
