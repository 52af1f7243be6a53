"""Fig. 4(b): slack vs QEC rounds with qLDPC memories beside surface patches."""

import numpy as np

from repro.figures import build_figure, format_table
from repro.figures.bench import record_figure, run_once
from repro.noise import GOOGLE, IBM


def test_fig4b_qldpc_slack(benchmark):
    result = run_once(benchmark, build_figure, "fig4b", store=False)
    print("\n" + format_table(result.document()))
    record_figure(result)

    for name, hw in (("ibm", IBM), ("google", GOOGLE)):
        rows = sorted(
            (r for r in result.rows if r["hardware"] == name),
            key=lambda r: r["round"],
        )
        series = np.asarray([r["slack_ns"] for r in rows])
        # deterministic sawtooth bounded by the surface-code cycle
        assert series[0] == 0.0
        assert series.max() < hw.cycle_time_ns
        assert series[1] > 0  # one round already desynchronizes
        # the sawtooth must wrap at least once in 100 rounds
        assert (np.diff(series) < 0).any()
