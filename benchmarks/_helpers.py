"""Back-compat shim over :mod:`repro.figures.bench`.

The harness helpers (env knobs, ``record``/``record_merge``, ``run_once``)
were promoted into the public package so the CLI and the benchmarks share
one implementation and the knob catalogue is lint-checkable
(``contract-env-docs``; see docs/FIGURES.md).  This shim keeps the
historical import path working for the non-figure benchmarks.

Results land in ``REPRO_BENCH_RESULTS``, which ``benchmarks/conftest.py``
points at a per-session temporary directory unless the caller set it, so a
plain test run never rewrites the committed ``benchmarks/results``.

Scaling knobs (environment variables): ``REPRO_BENCH_SHOTS``,
``REPRO_BENCH_DISTANCES``, ``REPRO_BENCH_SEED`` — documented with defaults
in docs/FIGURES.md.
"""

from repro.figures.bench import (  # noqa: F401  (re-exported for the harness)
    bench_distances,
    bench_seed,
    bench_shots,
    record,
    record_merge,
    run_once,
)
