"""Fig. 20: synchronization-planning CPU time and workload CNOT widths."""

from repro.figures import build_figure, format_table
from repro.figures.bench import bench_seed, record_figure, run_once


def test_fig20_engine_scaling(benchmark):
    result = run_once(
        benchmark, build_figure, "fig20", {"seed": bench_seed()}, store=False
    )
    print("\n" + format_table(result.document()))
    record_figure(result)

    times = {
        r["patches"]: r["cpu_time_s"] for r in result.rows if r["kind"] == "timing"
    }
    # planning 50 patches stays comfortably sub-millisecond (paper: ~10 us
    # with 1024 threads; our single-threaded software model is the same order)
    assert times[50] < 1e-3
    # scaling is mild (linear in k, not quadratic blowup)
    assert times[50] < 100 * max(times[2], 1e-7)
    widths = {
        r["workload"]: r["max_concurrent_cnots"]
        for r in result.rows
        if r["kind"] == "max_concurrent_cnots"
    }
    # the paper caps its study at 50 concurrent synchronized operations
    assert max(widths.values()) >= 10
