"""Table 1: logical-error counts, Passive vs Active, per distance and slack."""

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


def test_table1_error_counts(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "table1",
        {
            "distances": bench_distances(),
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    table = result.rows
    # paper shape: Active reduces the error count in aggregate, and errors
    # drop with distance for both policies
    total_p = sum(r["errors_passive"] for r in table)
    total_a = sum(r["errors_active"] for r in table)
    assert total_a < total_p
    for slack in (500.0, 1000.0):
        rows = sorted(
            (r for r in table if r["slack_ns"] == slack), key=lambda r: r["distance"]
        )
        counts = [r["errors_passive"] for r in rows]
        assert counts == sorted(counts, reverse=True)
