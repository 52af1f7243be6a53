"""Fig. 17: the Active-intra policy is generally inferior to Active."""

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


def test_fig17_active_intra(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig17",
        {
            "distances": bench_distances(),
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    # the paper's point: Active-intra hovers near 1x (sometimes below),
    # never approaching Active's gains, because measure qubits also idle.
    # Non-finite reductions serialize as None in figure rows — drop them.
    reductions = [
        r["reduction"] for r in result.rows if r["reduction"] is not None
    ]
    assert 0.6 < np.mean(reductions) < 1.6
