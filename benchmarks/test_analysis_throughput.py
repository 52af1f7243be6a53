"""Per-distance circuit-analysis table for the benchmark's cold points.

A cold LER point pays one circuit analysis before it decodes anything:
surgery synthesis (``ler.analyze.circuit``), backward DEM extraction
(``ler.analyze.dem``) and matching-graph plus sampler build
(``ler.analyze.graph``).  For IBM Active at tau = 1000 ns and p = 1e-3
(``perfbench``'s ``cold_points`` configuration) over d = 5, 7, 9 and 11,
this records the seconds of each span over traced cold analyses, and races
the two DEM walks on the same circuit: the C walk (``dem_walk`` in
``uf.c``) against the Python fallback, forced by hiding the C library,
asserting their models are ``==``.  Each timed column is the median of
:data:`REPEATS` runs, with the fastest and slowest run beside it
(``<column>_min``/``<column>_max``): a single run swings by ~50% on a
shared host, so two refreshes can only be compared where their ranges
part.  The ``walk_ratio`` column is the C walk's median time over the
fallback's.

Writes ``benchmarks/results/analysis_throughput.json``.
"""

import statistics
import time
from unittest import mock

import pytest

from repro import obs
from repro.core.policies import make_policy
from repro.decoders.kernels import cext
from repro.experiments.ler import SurgeryLerConfig, clear_pipeline_cache, prepared_pipeline
from repro.figures.bench import record
from repro.noise import IBM
from repro.stab import circuit_to_dem

DISTANCES = (5, 7, 9, 11)
#: timed repetitions of each cold analysis and DEM walk (median, min and
#: max are recorded)
REPEATS = 7
SPANS = ("ler.analyze.circuit", "ler.analyze.dem", "ler.analyze.graph")


def _config(d: int) -> SurgeryLerConfig:
    return SurgeryLerConfig(distance=d, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3)


def _spread(column: str, times: list) -> dict:
    """The median of ``times`` under ``column``, its min and max beside it."""
    return {
        column: statistics.median(times),
        f"{column}_min": min(times),
        f"{column}_max": max(times),
    }


def _traced_analysis(config):
    """The pipeline of cold analyses and each ``ler.analyze.*`` span's seconds."""
    runs = {name: [] for name in SPANS}
    for _ in range(REPEATS):
        clear_pipeline_cache()
        obs.configure()
        try:
            pipe = prepared_pipeline(config, make_policy("active"))
            events = list(obs.active().events)
        finally:
            obs.reset()
            clear_pipeline_cache()
        for e in events:
            if e["name"] in runs:
                runs[e["name"]].append(e["dur"] / 1e9)
    assert all(len(times) == REPEATS for times in runs.values())
    return pipe, runs


def _timed_walk(circuit):
    times, model = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        model = circuit_to_dem(circuit)
        times.append(time.perf_counter() - t0)
    return times, model


@pytest.mark.skipif(cext.library() is None, reason="the C walk cannot build")
def test_analysis_throughput():
    _traced_analysis(_config(3))  # first-use costs (imports, library load) stay out of the table
    rows = []
    for d in DISTANCES:
        pipe, seconds = _traced_analysis(_config(d))
        circuit = pipe.artifacts.circuit
        c_s, c_model = _timed_walk(circuit)
        with mock.patch.object(cext, "library", lambda: None):
            py_s, py_model = _timed_walk(circuit)
        assert c_model.errors == py_model.errors == pipe.dem.errors
        rows.append(
            {
                "distance": d,
                "dem_errors": len(pipe.dem.errors),
                **_spread("circuit_s", seconds["ler.analyze.circuit"]),
                **_spread("dem_s", seconds["ler.analyze.dem"]),
                **_spread("graph_s", seconds["ler.analyze.graph"]),
                **_spread("walk_cext_s", c_s),
                **_spread("walk_python_s", py_s),
                "walk_ratio": statistics.median(c_s) / statistics.median(py_s),
            }
        )
    record(
        "analysis_throughput",
        {
            "config": {
                "hardware": IBM.name,
                "policy": "active",
                "tau_ns": 1000.0,
                "p": 1e-3,
                "repeats": REPEATS,
            },
            "rows": rows,
        },
    )
