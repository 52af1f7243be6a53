"""Fast figure-builder tests (pure arithmetic / tiny Monte-Carlo figures)."""

import pytest

from repro.figures import build_figure
from repro.noise.hardware import SHERBROOKE


def _rows(name, overrides=None):
    return build_figure(name, overrides, store=False).rows


def test_fig10_matches_paper_values():
    rows = _rows("fig10")
    assert [r["extra_rounds"] for r in rows] == [None, 5, 11, 22, 26, 52, 34, 68]


def test_fig11_eps400_superset_of_eps100():
    rows = _rows("fig11", {
        "eps_values": (100, 400),
        "t_pp_values": (1050, 1150, 1325),
        "tau_values": tuple(range(100, 1200, 100)),
    })
    grids = {100: {}, 400: {}}
    for r in rows:
        grids[r["eps"]][(r["tau"], r["t_pp"])] = r["extra_rounds"]
    for key, z100 in grids[100].items():
        if z100 is not None:
            assert grids[400][key] is not None
            assert grids[400][key] <= z100


def test_fig1d_headroom():
    (row,) = _rows("fig1d", {"distance": 3, "shots": 2000, "seed": 5})
    assert row["norm_t_count"] == pytest.approx(row["ler_passive"] / row["ler_active"])
    # one shot samples no Active failure: the headroom is undefined
    with pytest.raises(ValueError, match="active LER must be positive"):
        _rows("fig1d", {"distance": 3, "shots": 1, "seed": 5})


def test_fig4a_structure():
    rows = _rows("fig4a", {"shots": 5000, "seed": 0})
    assert {(r["hardware"], r["p"]) for r in rows} == {
        (hw, p) for hw in ("ibm", "google") for p in (5e-4, 1e-3)
    }
    for r in rows:
        assert 0 <= r["median_ns"] <= r["p95_ns"]


def test_fig4b_structure():
    rows = _rows("fig4b", {"rounds": 10})
    assert {r["hardware"] for r in rows} == {"ibm", "google"}
    for hw in ("ibm", "google"):
        assert sum(r["hardware"] == hw for r in rows) == 11


def test_fig6_monotone_in_windows():
    rows = _rows("fig6", {"idle_periods_us": (1.6, 3.2), "n_values": (5, 50)})
    for row in rows:
        assert row["active"] >= row["passive"]


def test_fig20_scaling_rows():
    rows = _rows("fig20", {"patch_counts": (2, 10), "repeats": 20, "seed": 1})
    timing = [r for r in rows if r["kind"] == "timing"]
    assert [r["patches"] for r in timing] == [2, 10]
    assert all(r["cpu_time_s"] > 0 for r in timing)
    assert sum(r["kind"] == "max_concurrent_cnots" for r in rows) == 6


def test_table5_rows_complete():
    rows = _rows("table5", {"taus_ms": (0.2, 1.0), "eps_values_ms": (0.1, 0.4)})
    assert len(rows) == 4
    assert all(r["mean_extra_rounds"] is not None for r in rows)


def test_sherbrooke_preset_matches_footnote():
    assert SHERBROOKE.t1_ns == pytest.approx(330_770.0)
    assert SHERBROOKE.t2_ns == pytest.approx(72_680.0)
