"""Fig. 3(c): minimum synchronizations per logical cycle per workload."""

from repro.figures import build_figure, format_table
from repro.figures.bench import record_figure, run_once


def test_fig3c_syncs_per_cycle(benchmark):
    result = run_once(benchmark, build_figure, "fig3c", store=False)
    print("\n" + format_table(result.document()))
    record_figure(result)

    rates = {r["workload"]: r["syncs_per_cycle"] for r in result.rows}
    # paper shape: every workload synchronizes, qft/qpe are the hungriest,
    # and the range spans roughly one to eleven per cycle
    assert all(r > 0 for r in rates.values())
    assert rates["qft-80"] > rates["ising-98"]
    assert rates["qpe-80"] > rates["wstate-118"]
    assert max(rates.values()) < 40
