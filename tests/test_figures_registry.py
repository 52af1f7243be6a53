"""Tests for the declarative figure registry (``repro.figures``).

Four layers:

* **registry** — canonical names, the alias table, unknown-name errors and
  the parameter schema (unknown overrides raise in strict mode);
* **export round-trips** — the uniform result document, CSV and Vega-Lite
  emitters, validated against the shipping ``scripts/validate_results.py``
  schema checks;
* **store behaviour** — a warm store serves rebuilds from the figure cache
  with zero decoding (asserted via store mtime-diff *and* a builder swapped
  for one that raises), ``store=False`` never touches a persistent store,
  and every ``ler-sweep`` spec gives the same rows with and without one;
* **CLI** — ``repro figures list|build``, including exit 2 on unknown
  names/params and ``build --all`` against a warm store.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro import cli
from repro.figures import (
    ALIASES,
    CACHE_SCHEMA,
    FIGURE_BUILDERS,
    build_figure,
    canonical_name,
    categories,
    figure_cache_key,
    format_table,
    get,
    names,
    rows_to_csv,
    vega_document,
    write_outputs,
)
from repro.figures import export as fig_export
from repro.store import ResultStore

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "validate_results", REPO / "scripts" / "validate_results.py"
)
validate_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_results)

#: tiny sweep-backed configuration: d=2 at 120 shots decodes in milliseconds
TINY = {"distances": (2,), "taus_ns": (500.0,), "shots": 120, "seed": 7}

#: paper values the fig10 spec's checks pin
FIG10_PAPER = [None, 5, 11, 22, 26, 52, 34, 68]


def _boom(params, reports):
    raise AssertionError("builder must not run on a store-served rebuild")


def _store_snapshot(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in sorted(root.rglob("*.json"))}


# ---------------------------------------------------------------- registry


def test_every_spec_is_registered_and_well_formed():
    assert len(FIGURE_BUILDERS) >= 23
    for name in names():
        spec = get(name)
        assert spec.name == name
        assert spec.category in ("analytic", "sampled", "ler-sweep", "engine")
        assert spec.anchor and spec.title and spec.columns
        assert callable(spec.builder)
        assert callable(spec.checks)


def test_alias_resolution():
    for alias, canonical in ALIASES.items():
        assert canonical_name(alias) == canonical
        assert get(alias) is get(canonical)
    # canonical names resolve to themselves
    assert canonical_name("fig14_ibm") == "fig14_ibm"


def test_unknown_name_raises_with_known_list():
    with pytest.raises(KeyError, match="unknown figure 'fig999'"):
        canonical_name("fig999")


def test_categories_cover_all_names():
    grouped = categories()
    assert sorted(n for group in grouped.values() for n in group) == sorted(names())


def test_resolve_params_strict_rejects_unknown_keys():
    spec = get("fig10")
    with pytest.raises(ValueError, match="unknown parameter"):
        spec.resolve_params({"bogus": 1})
    # non-strict drops them instead (bulk --all overrides)
    assert "bogus" not in spec.resolve_params({"bogus": 1}, strict=False)


def test_alias_build_equals_canonical_build():
    a = build_figure("fig01c", {"shots": 200, "seed": 7}, store=False)
    b = build_figure("fig1c", {"shots": 200, "seed": 7}, store=False)
    assert a.spec.name == b.spec.name == "fig1c"
    assert a.rows == b.rows


# ------------------------------------------------------------ export layer


def test_fig10_document_round_trip(tmp_path):
    result = build_figure("fig10", store=False)
    assert [r["extra_rounds"] for r in result.rows] == FIG10_PAPER

    doc = result.document()
    assert doc["schema"] == fig_export.RESULT_SCHEMA
    assert doc["figure"] == "fig10"
    assert validate_results._figure_document_problems(doc) == []

    paths = write_outputs(doc, tmp_path, ("json", "csv", "vega"), hints=result.spec.vega)
    assert [p.name for p in paths] == ["fig10.json", "fig10.csv", "fig10.vega.json"]

    # JSON: the document itself, schema-validated by the shipping validator
    assert validate_results.validate_figure_file(paths[0]) == []
    reread = json.loads(paths[0].read_text())
    assert reread["rows"] == doc["rows"]
    # auto-detection: the generic results check applies the figure schema
    assert validate_results.validate_file(paths[0]) == []

    # CSV: header is the column order, one line per row, None cells blank
    lines = paths[1].read_text().splitlines()
    assert lines[0] == ",".join(doc["columns"])
    assert len(lines) == 1 + len(doc["rows"])
    assert lines[1].endswith(",")  # extra_rounds=None -> blank cell

    # Vega: themed Vega-Lite doc carrying the same rows
    assert validate_results.validate_vega_file(paths[2]) == []
    vega = json.loads(paths[2].read_text())
    assert vega["data"]["values"] == doc["rows"]
    assert vega["mark"] == result.spec.vega["mark"]


def test_unknown_export_format_raises(tmp_path):
    doc = build_figure("fig10", store=False).document()
    with pytest.raises(ValueError, match="unknown export format"):
        write_outputs(doc, tmp_path, ("parquet",))


def test_plain_maps_non_finite_to_none():
    assert fig_export.plain(float("inf")) is None
    assert fig_export.plain({"a": float("nan"), "b": 1.5}) == {"a": None, "b": 1.5}


def test_rows_to_csv_and_format_table_cover_missing_columns():
    rows = [{"a": 1}, {"a": 2, "b": "x"}]
    csv_text = rows_to_csv(("a", "b"), rows)
    assert csv_text.splitlines() == ["a,b", "1,", "2,x"]
    doc = {"figure": "t", "anchor": "T", "title": "t", "columns": ["a", "b"], "rows": rows}
    table = format_table(doc)
    assert "a" in table and "-" in table  # missing cell rendered as '-'
    assert vega_document(doc)["encoding"]["x"]["field"] == "a"


# ---------------------------------------------------------- store behaviour


def test_store_served_rebuild_decodes_nothing(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    cold = build_figure("fig14_ibm", TINY, store=store)
    assert cold.served_from_store is False
    assert cold.rows

    snapshot = _store_snapshot(tmp_path / "store")
    assert snapshot  # points + figure cache records landed

    warm = build_figure("fig14_ibm", TINY, store=store)
    assert warm.served_from_store is True
    assert warm.rows == cold.rows
    # zero decoding also means zero store writes: no file added or touched
    assert _store_snapshot(tmp_path / "store") == snapshot

    # swap the builder for a tripwire: a warm build must never invoke it
    spec = get("fig14_ibm")
    monkeypatch.setitem(FIGURE_BUILDERS, "fig14_ibm", spec.with_builder(_boom))
    tripwired = build_figure("fig14_ibm", TINY, store=store)
    assert tripwired.served_from_store is True
    assert tripwired.rows == cold.rows


def test_param_change_misses_the_cache(tmp_path):
    store = ResultStore(tmp_path / "store")
    build_figure("fig14_ibm", TINY, store=store)
    changed = build_figure("fig14_ibm", dict(TINY, seed=8), store=store)
    assert changed.served_from_store is False
    assert figure_cache_key("fig14_ibm", TINY) != figure_cache_key(
        "fig14_ibm", dict(TINY, seed=8)
    )


#: names whose use makes a figure's rows wall-clock measurements
_WALL_CLOCK = ("stopwatch", "perf_counter", "process_time", "monotonic", "time.time",
               "measure_decoder_latencies")


def _rows_are_timings(spec) -> bool:
    """Whether the builder reads a clock."""
    source = inspect.getsource(spec.builder)
    return any(token in source for token in _WALL_CLOCK)


def test_specs_whose_rows_are_timings_are_uncacheable():
    timed = {name for name in names() if _rows_are_timings(get(name))}
    assert timed == {"fig20", "fig22"}
    assert all(not get(name).cacheable for name in timed)


def test_uncacheable_spec_is_rebuilt_and_never_cached(tmp_path):
    store = ResultStore(tmp_path / "store")
    params = {"patch_counts": (2,), "repeats": 1}
    first = build_figure("fig20", params, store=store)
    again = build_figure("fig20", params, store=store)
    assert first.served_from_store is False and again.served_from_store is False
    assert store.get(figure_cache_key("fig20", first.params)) is None


def test_storeless_build_ignores_default_store(tmp_path, monkeypatch):
    # REPRO_STORE_ROOT active in the environment must not leak into
    # store=False builds, which persist nothing
    monkeypatch.setenv("REPRO_STORE_ROOT", str(tmp_path / "env-store"))
    result = build_figure("fig10", store=False)
    assert result.served_from_store is False
    assert not (tmp_path / "env-store").exists()


#: a small LER configuration every ler-sweep spec accepts (bulk overrides
#: drop the keys a schema lacks): one d=3 point set at 400 shots
SMALL_LER = {"shots": 400, "distances": (3,), "distance": 3}


@pytest.mark.parametrize("name", categories()["ler-sweep"])
def test_storeless_rows_equal_store_backed_rows(name, tmp_path, monkeypatch):
    # one number per (spec, seed): a storeless build reads through a
    # temporary store, so it must give exactly the rows a fresh persistent
    # store gives — and it must persist nothing, even with an env store set
    monkeypatch.setenv("REPRO_STORE_ROOT", str(tmp_path / "env-store"))
    storeless = build_figure(name, SMALL_LER, store=False, strict=False)
    stored = build_figure(
        name, SMALL_LER, store=ResultStore(tmp_path / "store"), strict=False
    )
    assert storeless.rows
    assert storeless.rows == stored.rows
    assert not (tmp_path / "env-store").exists()


# ------------------------------------------------------------------- CLI


def test_cli_list_text_and_json(capsys):
    assert cli.main(["figures", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig1c" in out and "table5" in out and "alias: fig01c" in out

    assert cli.main(["figures", "list", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == names()
    assert all({"category", "anchor", "title", "params"} <= set(r) for r in rows)


def test_cli_build_unknown_name_exits_2(tmp_path, capsys):
    rc = cli.main(["figures", "build", "fig999", "--no-store", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown figure" in capsys.readouterr().err


def test_cli_build_unknown_param_exits_2(tmp_path, capsys):
    rc = cli.main([
        "figures", "build", "fig10", "--no-store", "--out", str(tmp_path),
        "--param", "bogus=1",
    ])
    assert rc == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_cli_build_requires_names_or_all(tmp_path, capsys):
    assert cli.main(["figures", "build", "--no-store", "--out", str(tmp_path)]) == 2
    assert "NAME... or --all" in capsys.readouterr().err


def test_cli_build_alias_writes_canonical_files(tmp_path, capsys):
    rc = cli.main([
        "figures", "build", "fig01c", "--no-store", "--out", str(tmp_path),
        "--shots", "200", "--seed", "7",
        "--format", "json", "--format", "csv", "--format", "vega",
    ])
    assert rc == 0
    assert "[fig1c]" in capsys.readouterr().out
    for suffix in (".json", ".csv", ".vega.json"):
        assert (tmp_path / f"fig1c{suffix}").exists()
    assert validate_results.validate_figure_file(tmp_path / "fig1c.json") == []
    assert validate_results.validate_vega_file(tmp_path / "fig1c.vega.json") == []


def test_cli_build_all_from_warm_store_decodes_nothing(tmp_path, capsys, monkeypatch):
    store_root = tmp_path / "store"
    out = tmp_path / "figs"
    store = ResultStore(store_root)

    # warm the figure cache for every cacheable spec at its default params,
    # then swap its builder for a tripwire: --all must serve it from store.
    # Timing specs are never cached: they rebuild, through a cheap stub
    rebuilt = {name for name in names() if not get(name).cacheable}
    for name in names():
        spec = get(name)
        if name in rebuilt:
            stub = lambda params, reports, column=spec.columns[0]: [{column: 1}]
            monkeypatch.setitem(FIGURE_BUILDERS, name, spec.with_builder(stub))
            continue
        params = spec.resolve_params({})
        store.put(
            figure_cache_key(name, params),
            {
                "schema": CACHE_SCHEMA,
                "figure": name,
                "params": fig_export.plain(params),
                "rows": [{spec.columns[0]: 1}],
            },
        )
        monkeypatch.setitem(FIGURE_BUILDERS, name, spec.with_builder(_boom))

    rc = cli.main([
        "figures", "build", "--all", "--store", str(store_root), "--out", str(out),
    ])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
    assert len(lines) == len(names())
    assert rebuilt == {"fig20", "fig22"}
    for ln in lines:
        name = ln[1 : ln.index("]")]
        assert ("(built)" if name in rebuilt else "(store)") in ln
    for name in names():
        assert (out / f"{name}.json").exists()


def test_cli_build_all_rejects_explicit_names(tmp_path, capsys):
    rc = cli.main([
        "figures", "build", "fig10", "--all", "--no-store", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "not both" in capsys.readouterr().err
