"""The repository benchmark: two closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cold_points --seed 1 --seconds 55 --trace 0

Workloads (one process, one caller, no pool workers; the next point or
batch starts only when the previous one is done):

* ``cold_points`` -- IBM timings, Active policy, tau=1000 ns, p=1e-3,
  d in {7, 9}, 2,000 shots per point, with ``clear_pipeline_cache()``
  before every point.  Circuit synthesis plus DEM extraction dominate.
* ``sweep_d3_store`` -- a store-backed ``run_sweep`` over a fig19-shaped
  d=3 grid (Google, 1000 ns cycle, T_P'=1050 ns, tau in {500, 1000},
  Passive/Active/Extra Rounds/Hybrid(eps=100 ns, max_rounds=100)),
  10,000-shot batches to 50,000 shots per point on the inline executor
  (``workers=1, speculate=1``), in a fresh temporary store, followed by
  the store-served re-run.  Syndromes repeat across batches and points,
  so sampling, dedup, the syndrome cache and store commits carry the load.

``--trace 0`` prints the end-to-end metrics (set-up time, seconds per
unit of work, shots per second, peak memory, share of points that passed
their checks); ``--trace 1`` prints the per-layer metrics of traced
episodes.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any point failed its checks.

Before it imports anything else this process drops every ``REPRO_*``
variable and pins the BLAS/OpenMP pools to one thread.  It imports the
program from ``src/`` of the current directory and exits with code 2,
printing no result, when that is missing.  Temporary stores live under
``.perfbench_tmp/`` of the current directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def isolate_environment() -> None:
    """Drop the program's knobs and pin native thread pools (before numpy loads)."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    for name in THREAD_POOL_VARS:
        os.environ[name] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smoke.py runs every workload at "smoke" size and with tampered
    # reference files; the measured runs use the defaults
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--references", default=None, help="reference file (default: perfbench/references.json)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    isolate_environment()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness  # deferred: numpy must load after isolate_environment()

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
