"""Fig. 10: extra rounds needed for synchronization — exact paper values."""

from repro.figures import build_figure, format_table
from repro.figures.bench import record_figure, run_once


PAPER_VALUES = [None, 5, 11, 22, 26, 52, 34, 68]


def test_fig10_extra_rounds(benchmark):
    result = run_once(benchmark, build_figure, "fig10", store=False)
    print("\n" + format_table(result.document()))
    record_figure(result)

    assert [row["extra_rounds"] for row in result.rows] == PAPER_VALUES
