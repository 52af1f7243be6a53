"""Plain builders behind the decoder-test fixtures in ``conftest.py``.

Cached surface-code ``(graph, detector samples)`` cases over a ``(d, p)``
grid, DEM/chain matching-graph constructors, seeded random hand-built DEMs,
the DEM of the benchmark's d=9 cold point, dense random syndrome
generators, a context that runs the packed data plane without its C
library, and the pair of decode paths the parity tests compare.  They live in their own module so test modules can import them
directly: ``conftest`` is not a unique module name once ``benchmarks/``
has a conftest too.
"""

from __future__ import annotations

import contextlib
import functools
import random
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
        DetectorErrorModel.from_errors(
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


def random_dem(seed: int):
    """A seeded hand-built DEM with every row shape a consumer must handle.

    Detectors are tagged ``X`` or ``Z`` at random, so a basis projection
    merges rows that differ only in the other basis.  Rows have 0-4
    detectors (some listed out of order), 0-3 observables, probabilities
    below, at and above 1/2; some rows repeat an earlier signature, and half
    the composites (3-4 detectors) come with the 1- and 2-detector rows
    that decompose them.
    """
    from repro.stab.dem import DemError, DetectorErrorModel

    rng = random.Random(seed)
    ndet, nobs = rng.randint(4, 12), rng.randint(1, 3)

    def prob():
        light = rng.uniform(1e-4, 0.3)
        return rng.choice([light, light, 0.5, rng.uniform(0.5, 1.0)])

    def obs():
        return tuple(rng.sample(range(nobs), rng.choice([0, 0, 1, 1, nobs])))

    errors = []
    for _ in range(rng.randint(5, 30)):
        k = rng.choices(range(5), weights=[2, 4, 5, 2, 2])[0]
        dets = rng.sample(range(ndet), k)
        if rng.random() < 0.8:
            dets.sort()
        errors.append(DemError(prob(), tuple(dets), obs()))
        if k > 2 and rng.random() < 0.5:
            for i in range(0, k, 2):
                errors.append(DemError(prob(), tuple(sorted(dets[i : i + 2])), obs()))
    for e in rng.sample(errors, min(len(errors), rng.randint(1, 6))):
        errors.append(DemError(prob(), e.detectors[::-1], e.observables))
    rng.shuffle(errors)
    return DetectorErrorModel.from_errors(
        errors=errors,
        num_detectors=ndet,
        num_observables=nobs,
        detector_coords=[(float(j),) for j in range(ndet)],
        detector_basis=[rng.choice("XZ") for _ in range(ndet)],
    )


@functools.lru_cache(maxsize=1)
def d9_cold_dem():
    """The DEM of the benchmark's largest cold point: IBM Active, d=9."""
    from repro.core.policies import make_policy
    from repro.experiments.ler import SurgeryLerConfig, _synthesize
    from repro.noise import IBM
    from repro.stab import circuit_to_dem

    config = SurgeryLerConfig(
        distance=9, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3
    )
    _, artifacts = _synthesize(config, make_policy("active"))
    return circuit_to_dem(artifacts.circuit)


def build_dense_syndromes(graph, n: int, density: float, seed: int) -> np.ndarray:
    """Seeded ``(n, num_detectors)`` bool matrix of iid defects."""
    rng = np.random.default_rng(seed)
    return rng.random((n, graph.num_detectors)) < density


@contextlib.contextmanager
def numpy_plane():
    """The data plane with no C library: the numpy fallbacks run."""
    with mock.patch.object(cext, "library", lambda: None):
        yield


#: the decode paths a parity test compares, scalar reference first: the
#: scalar pass with no C library, then whatever path this host runs
DECODE_PATHS = (("python", numpy_plane), ("host", contextlib.nullcontext))
