"""Table 5: Hybrid extra rounds needed on neutral-atom systems."""

from repro.figures import build_figure, format_table
from repro.figures.bench import record_figure, run_once


def test_table5_neutral_rounds(benchmark):
    result = run_once(benchmark, build_figure, "table5", store=False)
    print("\n" + format_table(result.document()))
    record_figure(result)

    rows = result.rows
    # every configuration is solvable and needs multiple multi-ms rounds —
    # exactly why Hybrid loses on neutral atoms (paper: 3-12 extra rounds)
    assert all(r["mean_extra_rounds"] is not None for r in rows)
    assert all(1 <= r["mean_extra_rounds"] <= 20 for r in rows)
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r["eps_ms"], []).append(r["mean_extra_rounds"])
    # a looser tolerance never needs more rounds on average
    assert sum(by_eps[0.4]) <= sum(by_eps[0.1]) + 1e-9
