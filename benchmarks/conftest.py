"""Benchmark-suite fixtures.

Every benchmark records its results through ``repro.figures.bench``, which
writes to ``REPRO_BENCH_RESULTS`` (default ``benchmarks/results``).  A
plain test run must not rewrite those tracked files, so unless the caller
chose a directory the session writes into a pytest temporary one.
Refreshing the committed results is an explicit step:
``REPRO_BENCH_RESULTS=benchmarks/results python -m pytest benchmarks``.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _bench_results_dir(tmp_path_factory):
    if os.environ.get("REPRO_BENCH_RESULTS"):
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BENCH_RESULTS", str(tmp_path_factory.mktemp("bench-results")))
        yield
