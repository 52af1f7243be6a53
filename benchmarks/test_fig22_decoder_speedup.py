"""Fig. 22: decode-latency speedup from Active synchronization (LUT + MWPM)."""

from repro.figures import build_figure, format_table
from repro.figures.bench import (
    bench_distances,
    bench_seed,
    bench_shots,
    record_figure,
    run_once,
)


def test_fig22_decoder_speedup(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig22",
        {
            "distances": bench_distances((3, 5)),
            "shots": min(bench_shots(), 4000),
            "seed": bench_seed(),
        },
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    for r in result.rows:
        # Active's flatter per-round syndromes hit the LUT at least as often
        assert r["hit_rate_active"] >= r["hit_rate_passive"] - 0.005
        if r["distance"] <= 3:
            # paper's d=3 regime: the LUT captures almost everything for both
            # policies, so the speedup hovers near parity (their 1.03x)
            assert 0.9 < r["speedup"] < 2.0
        else:
            # at d>=5 Passive's merge-round spike overflows the LUT more often,
            # so Active decodes strictly faster (paper: 2.28x at d=5; the spike
            # amplitude — hence the gap — grows with patch size)
            assert r["speedup"] > 1.0
