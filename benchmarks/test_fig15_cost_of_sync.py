"""Fig. 15: cost of synchronization vs the ideal (never-desynchronized) system."""

import pytest

#: long-running regression: excluded from the fast gate (scripts/check.sh)
pytestmark = pytest.mark.slow

from repro.figures import build_figure, format_table
from repro.figures.bench import (
    bench_distances,
    bench_seed,
    bench_shots,
    record_figure,
    run_once,
)


def test_fig15_cost_of_sync(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig15",
        {
            "distances": bench_distances(),
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    rows = result.rows
    by_key = {(r["distance"], r["policy"]): r["ler_joint"] for r in rows}
    distances = sorted({r["distance"] for r in rows})
    # at small d the three curves are within shot noise of each other (as in
    # the paper's Fig. 15 left edge); the ordering binds at the largest d
    d = distances[-1]
    assert by_key[(d, "ideal")] <= by_key[(d, "active")] * 1.2
    assert by_key[(d, "active")] <= by_key[(d, "passive")] * 1.15
    # active sits closer to ideal than passive does (the paper's headline)
    gaps_active = sum(by_key[(d, "active")] - by_key[(d, "ideal")] for d in distances)
    gaps_passive = sum(by_key[(d, "passive")] - by_key[(d, "ideal")] for d in distances)
    assert gaps_active < gaps_passive
