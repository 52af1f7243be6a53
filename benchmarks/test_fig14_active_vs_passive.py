"""Fig. 14: LER reduction of Active over Passive synchronization.

The paper sweeps d = 3..15 at 100M shots on IBM- and Google-like systems for
both lattice-surgery bases; reductions grow from ~1x at d=3 to up to 2.4x at
d=15.  Defaults here cover d in {3, 5} on both systems for the Z basis (the X
basis is symmetric by construction and covered by the test suite).
"""

import pytest

#: long-running regression: excluded from the fast gate (scripts/check.sh)
pytestmark = pytest.mark.slow

import numpy as np

from repro.figures import build_figure, format_table
from repro.figures.bench import (
    bench_distances,
    bench_seed,
    bench_shots,
    record_figure,
    run_once,
)


def _run(benchmark, figure, shots):
    result = run_once(
        benchmark,
        build_figure,
        figure,
        {"distances": bench_distances(), "shots": shots, "seed": bench_seed()},
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)
    return result.rows


def test_fig14_ibm(benchmark):
    # IBM LERs are ~4x lower than Google's at equal d: the d=5 contrast is
    # ~1.1-1.2x against a per-seed scatter of +-20% even at 100k shots (see
    # the multi-seed spot-check in EXPERIMENTS.md).  Certifying the direction
    # at bench scale would need ~300k+ shots, so this twin records the data
    # and asserts sanity bounds; the Google twin carries the direction claim.
    # Non-finite reductions serialize as None in figure rows — drop them.
    rows = _run(benchmark, "fig14_ibm", shots=4 * bench_shots())
    reductions = [r["reduction"] for r in rows if r["reduction"] is not None]
    assert all(0.4 < v < 4.0 for v in reductions)
    assert np.mean(reductions) > 0.8


def test_fig14_google(benchmark):
    rows = _run(benchmark, "fig14_google", shots=bench_shots())
    # shape: Active never loses badly, and wins on average; the contrast is
    # strongest at the largest distance (the paper's rising curves)
    reductions = [r["reduction"] for r in rows if r["reduction"] is not None]
    assert np.mean(reductions) > 1.0
    d_max = max(r["distance"] for r in rows)
    top = [
        r["reduction"]
        for r in rows
        if r["distance"] == d_max and r["reduction"] is not None
    ]
    assert np.mean(top) > 1.0
    # the larger slack shows the larger (or equal) benefit on the same d/obs
    big_tau = [
        r["reduction"]
        for r in rows
        if r["tau_ns"] == 1000.0 and r["reduction"] is not None
    ]
    assert np.mean(big_tau) >= 0.9 * np.mean(reductions)
