"""Fig. 7: syndrome Hamming weights and their link to logical errors."""

import numpy as np

from repro.figures import build_figure, format_table
from repro.figures.bench import bench_seed, bench_shots, record_figure, run_once


def test_fig7_hamming_weight(benchmark):
    result = run_once(
        benchmark,
        build_figure,
        "fig7",
        {"shots": bench_shots(), "seed": bench_seed()},
        store=False,
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    weight_per_round = {"passive": {}, "active": {}}
    ler_rows = []
    merge = None
    for r in result.rows:
        if r["kind"] == "weight_per_round":
            weight_per_round[r["policy"]][r["round"]] = r["mean_weight"]
            if r["policy"] == "passive":
                merge = r["merge_round"]
        elif r["kind"] == "ler_by_weight" and r["policy"] == "passive":
            ler_rows.append((r["weight"], r["shots"], r["failures"]))

    # (b) Passive spikes at the merge round; Active stays much flatter there
    spike_passive = weight_per_round["passive"][merge]
    spike_active = weight_per_round["active"][merge]
    assert spike_passive > 1.2 * spike_active
    # Active pays a slightly higher weight in earlier rounds
    pre_rounds = [r for r in weight_per_round["passive"] if 0 < r < merge]
    pre_p = np.mean([weight_per_round["passive"][r] for r in pre_rounds])
    pre_a = np.mean([weight_per_round["active"][r] for r in pre_rounds])
    assert pre_a >= pre_p

    # (a) higher Hamming weight -> higher LER (compare low vs high tercile)
    rows = np.array(ler_rows, dtype=float)
    weights, shots_per, fails = rows[:, 0], rows[:, 1], rows[:, 2]
    cut = np.percentile(np.repeat(weights, shots_per.astype(int)), 66)
    low = fails[weights <= cut].sum() / max(shots_per[weights <= cut].sum(), 1)
    high = fails[weights > cut].sum() / max(shots_per[weights > cut].sum(), 1)
    assert high > low
