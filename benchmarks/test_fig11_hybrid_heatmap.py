"""Fig. 11: Hybrid-policy feasibility heatmap over (tau, T_P') for two eps."""

from repro.figures import build_figure, format_table
from repro.figures.bench import record_figure, run_once


def test_fig11_hybrid_heatmap(benchmark):
    result = run_once(benchmark, build_figure, "fig11", store=False)
    print("\n" + format_table(result.document()))
    record_figure(result)

    solvable = {}
    for r in result.rows:
        n_ok, n_total = solvable.get(r["eps"], (0, 0))
        solvable[r["eps"]] = (n_ok + (r["extra_rounds"] is not None), n_total + 1)
    for eps, (n_ok, n_total) in sorted(solvable.items()):
        print(f"eps={eps} ns: {n_ok}/{n_total} (tau, T_P') cells solvable within z<=5")

    # paper shape: a larger tolerance opens up many more configurations
    assert solvable[400][0] > 2 * solvable[100][0]
    # every recorded z obeys the z <= 5 bound used in the paper
    assert all(
        r["extra_rounds"] is None or 1 <= r["extra_rounds"] <= 5 for r in result.rows
    )
    # equal cycle times are never solvable by extra rounds
    assert all(
        r["extra_rounds"] is None for r in result.rows if r["t_pp"] == 1000
    )
