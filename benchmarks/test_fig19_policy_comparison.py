"""Fig. 19: Active vs Extra Rounds vs Hybrid(eps) with unequal cycle times."""

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


def test_fig19_policy_comparison(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig19",
        {
            "distance": bench_distances()[-1],
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    by_key = {(r["policy"], r["tau_ns"]): r["reduction"] for r in result.rows}
    # every policy's reduction is a sane positive ratio
    assert all(0.02 < v < 10 for v in by_key.values())
    # the paper's headline for large tau: hybrid (generous eps) beats pure
    # extra rounds, which pays for its dozens of extra rounds
    if ("hybrid@400.0", 1000.0) in by_key and ("extra_rounds", 1000.0) in by_key:
        assert by_key[("hybrid@400.0", 1000.0)] > by_key[("extra_rounds", 1000.0)]
    # active must be competitive at small tau
    assert by_key[("active", 500.0)] > 0.75
    # a looser tolerance can only help the hybrid policy
    if ("hybrid@100.0", 1000.0) in by_key:
        assert by_key[("hybrid@400.0", 1000.0)] >= 0.7 * by_key[("hybrid@100.0", 1000.0)]
