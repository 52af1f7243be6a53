"""Every registered paper figure/table, built at its defaults and checked.

One test per ``FigureSpec``: build without a persistent store, run the
spec's paper-value ``checks`` on the rows, and record the result document
into ``REPRO_BENCH_RESULTS``.  Cacheable specs are also pinned: their rows
must equal the committed ``benchmarks/results/<name>.json`` rows, because
an LER depends only on (spec, seed).  Wall-clock specs (fig20, fig22) are
not pinned.
"""

import json
from pathlib import Path

import pytest

from repro.figures import build_figure, format_table, get, names
from repro.figures.bench import record_figure, run_once

COMMITTED = Path(__file__).resolve().parent / "results"


@pytest.mark.parametrize("name", names())
def test_figure(name, benchmark):
    spec = get(name)
    path = COMMITTED / f"{name}.json"
    # read before record_figure, which may rewrite this very file
    committed = json.loads(path.read_text())["rows"] if path.exists() else None
    result = run_once(benchmark, build_figure, name, store=False)
    print("\n" + format_table(result.document()))
    spec.checks(result.rows)
    record_figure(result)
    if spec.cacheable:
        assert result.rows == committed, (
            f"rows differ from {path}; refresh it with "
            "REPRO_BENCH_RESULTS=benchmarks/results python -m pytest benchmarks/test_figures.py"
        )
