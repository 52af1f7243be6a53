"""Fig. 1(d): normalized T-count headroom enabled by Active synchronization."""

from repro.figures import build_figure, format_table
from repro.figures.bench import (
    bench_distances,
    bench_seed,
    bench_shots,
    record_figure,
    run_once,
)


def test_fig1d_tcount_headroom(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig1d",
        {
            "distance": bench_distances()[-1],
            "shots": bench_shots(),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    headroom = result.rows[0]["norm_t_count"]
    print(f"normalized T count (Active vs Passive): {headroom:.2f}x (paper: up to 2.40x)")
    # Active must enable at least as deep a circuit; the paper's 2.4x needs
    # d=15 at 100M shots, so at laptop scale we assert the direction + bound
    assert headroom > 0.9
    assert headroom < 6.0
