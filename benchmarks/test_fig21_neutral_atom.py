"""Fig. 21: on neutral atoms, extra rounds hurt; Active ~ Passive."""

import numpy as np

from repro.figures import build_figure, format_table
from repro.figures.bench import bench_seed, bench_shots, record_figure, run_once


def test_fig21_neutral_atom(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig21",
        {"shots": bench_shots(), "seed": bench_seed()},
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    rows = result.rows
    active = [r["reduction"] for r in rows if r["policy"] == "active"]
    hybrid = [r["reduction"] for r in rows if r["policy"] == "hybrid"]
    # long coherence times make idling nearly free: Active ~ Passive (~1x)
    assert all(0.6 < v < 1.7 for v in active)
    # Hybrid runs extra multi-ms rounds and pays for them: never better than
    # Active on average (the paper shows reductions *below* 1)
    if hybrid:
        assert np.mean(hybrid) <= np.mean(active) * 1.15
        assert any(r["extra_rounds"] >= 1 for r in rows if r["policy"] == "hybrid")
