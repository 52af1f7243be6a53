"""Fig. 6: physical-qubit fidelity, Passive vs Active idle windows under DD."""

from repro.figures import build_figure, format_table
from repro.figures.bench import record_figure, run_once


def test_fig6_dd_fidelity(benchmark):
    result = run_once(benchmark, build_figure, "fig6", store=False)
    print("\n" + format_table(result.document()))
    record_figure(result)

    by_n = {}
    for r in result.rows:
        by_n.setdefault(r["windows"], []).append(r)
    for n, rows in by_n.items():
        for row in rows:
            # active (split windows) always at least matches passive
            assert row["active"] >= row["passive"] - 1e-12
        # fidelity decreases with total idle for both policies
        passives = [r["passive"] for r in rows]
        assert passives == sorted(passives, reverse=True)
    # splitting into more windows helps more (N=200 beats N=20)
    by_tp_20 = {r["tp_us"]: r["active"] for r in by_n[20]}
    by_tp_200 = {r["tp_us"]: r["active"] for r in by_n[200]}
    assert all(by_tp_200[tp] >= by_tp_20[tp] for tp in by_tp_20)
    # the mean-fidelity scale matches the hardware figure (~0.4-0.9)
    assert 0.35 < min(r["passive"] for r in result.rows) < 0.95
