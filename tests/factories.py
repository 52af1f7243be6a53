"""Plain builders behind the decoder-test fixtures in ``conftest.py``.

Cached surface-code ``(graph, detector samples)`` cases over a ``(d, p)``
grid, DEM/chain matching-graph constructors, dense random syndrome
generators and a context that runs the packed data plane without its C
library.  They live in their own module so test modules can import them
directly: ``conftest`` is not a unique module name once ``benchmarks/``
has a conftest too.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.decoders.kernels import cext
from repro.noise import GOOGLE, NoiseModel

#: the parity matrix's shared (d, p) grid: point -> (shots, sample seed)
PARITY_GRID_POINTS = {
    (3, 2e-3): (800, 31),
    (3, 5e-3): (800, 32),
    (5, 1e-3): (800, 33),
}

_SURFACE_CACHE: dict = {}


def build_surface_case(
    d: int, p: float, shots: int, seed: int, *, idle_scale: float = 0.0
):
    """Cached ``(graph, det, obs)`` of a (d, p) surface-code memory run.

    One Z-basis matching graph plus ``shots`` sampled detector/observable
    rows; results are cached per ``(d, p, shots, seed, idle_scale)`` so the
    expensive circuit analysis runs once per test session.
    """
    from repro.codes import memory_experiment
    from repro.decoders import build_matching_graph
    from repro.stab import DemSampler, circuit_to_dem

    key = (d, p, shots, seed, idle_scale)
    if key not in _SURFACE_CACHE:
        noise = NoiseModel(hardware=GOOGLE, p=p, idle_scale=idle_scale)
        art = memory_experiment(d, d, noise)
        dem = circuit_to_dem(art.circuit)
        graph = build_matching_graph(dem, basis="Z")
        det, obs = DemSampler(dem).sample(shots, rng=seed)
        _SURFACE_CACHE[key] = (graph, det, obs)
    return _SURFACE_CACHE[key]


def build_dem_graph(errors, ndet: int, nobs: int = 1):
    """Matching graph from ``(probability, detectors, observables)`` triples."""
    from repro.decoders import build_matching_graph
    from repro.stab.dem import DemError, DetectorErrorModel

    return build_matching_graph(
        DetectorErrorModel(
            errors=[DemError(p, tuple(d), tuple(o)) for p, d, o in errors],
            num_detectors=ndet,
            num_observables=nobs,
            detector_coords=[()] * ndet,
            detector_basis=["Z"] * ndet,
        )
    )


def build_chain_graph(n: int = 4):
    """The canonical n-detector chain: boundary edges at both ends, the left
    one carrying observable 0."""
    errors = [(0.05, (0,), (0,))]
    for i in range(n - 1):
        errors.append((0.05, (i, i + 1), ()))
    errors.append((0.05, (n - 1,), ()))
    return build_dem_graph(errors, n, 1)


def build_dense_syndromes(graph, n: int, density: float, seed: int) -> np.ndarray:
    """Seeded ``(n, num_detectors)`` bool matrix of iid defects."""
    rng = np.random.default_rng(seed)
    return rng.random((n, graph.num_detectors)) < density


@contextlib.contextmanager
def numpy_plane():
    """The data plane with no C library: the numpy fallbacks run."""
    with mock.patch.object(cext, "library", lambda: None):
        yield
