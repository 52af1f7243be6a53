"""Fig. 1(c): repetition-code LER vs idling period before the final round."""

from repro.figures import build_figure, format_table
from repro.figures.bench import bench_seed, bench_shots, record_figure, run_once


def test_fig1c_repetition_idle(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig1c",
        {"shots": bench_shots(20_000), "seed": bench_seed()},
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    rows = result.rows  # sorted by idle_ns
    # shape: LER grows sharply with the idling period (paper: 1e-2 -> ~1e-1)
    assert rows[-1]["ler_zero"] > 1.5 * rows[0]["ler_zero"]
    # the two logical preparations behave alike
    for r in rows:
        assert abs(r["ler_zero"] - r["ler_one"]) < 0.05
