"""Table 2: the worked configuration T_P=1000, T_P'=1325, tau=1000, eps=400."""

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


def test_table2_policy_config(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "table2",
        {
            "distance": bench_distances()[-1],
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    by_policy = {r["policy"]: r for r in result.rows}
    # the schedule arithmetic must match the paper's Table 2 exactly
    assert by_policy["active"]["idle_ns"] == 1000.0
    assert by_policy["active"]["extra_rounds"] == 0
    assert by_policy["extra_rounds"]["idle_ns"] == 0.0
    assert by_policy["extra_rounds"]["extra_rounds"] == 52
    assert by_policy["hybrid"]["idle_ns"] == 300.0
    assert by_policy["hybrid"]["extra_rounds"] == 4
    # LER shape: the pure extra-rounds policy pays dearly for its 52 rounds
    # (paper: 4.2x worse than Active); Hybrid stays in Active's band.  The
    # hybrid<active separation itself (paper: 1.47x at d=7, 20M shots) is not
    # resolvable at laptop shots/d=5 — see EXPERIMENTS.md.
    assert by_policy["extra_rounds"]["ler"] > 2.0 * by_policy["active"]["ler"]
    assert by_policy["hybrid"]["ler"] < 0.7 * by_policy["extra_rounds"]["ler"]
    assert by_policy["hybrid"]["ler"] <= by_policy["active"]["ler"] * 1.6
