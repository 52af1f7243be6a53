"""Fig. 16: relative increase in final program LER, Passive vs Active."""

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


def test_fig16_workload_ler(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig16",
        {
            "distance": bench_distances()[-1],
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    rows = result.rows
    for r in rows:
        # passive costs at least as much as active (up to per-point shot noise)
        assert r["passive_tau1000"] >= 0.85 * r["active"]
        assert r["passive_tau1000"] >= r["passive_tau500"] - 0.5
    # synchronization-hungry workloads suffer the most under Passive
    by_name = {r["workload"]: r for r in rows}
    assert by_name["qft-80"]["passive_tau1000"] > by_name["ising-98"]["passive_tau1000"]
