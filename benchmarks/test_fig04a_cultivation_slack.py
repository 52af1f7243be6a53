"""Fig. 4(a): cultivation-induced slack distributions (IBM/Google, p sweep)."""

from repro.figures import build_figure, format_table
from repro.figures.bench import bench_seed, bench_shots, record_figure, run_once


def test_fig4a_cultivation_slack(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig4a",
        {"shots": bench_shots(100_000), "seed": bench_seed()},
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    # paper band: average-case slack ~500 ns, worst-case ~1000 ns
    for r in result.rows:
        assert 100 < r["mean_ns"] < 1500
        assert r["p95_ns"] < 2100
