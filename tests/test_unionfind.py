"""Union-find decoder tests: exactness on small cases, MWPM agreement."""

import numpy as np
import pytest

from repro.codes import memory_experiment
from repro.decoders import MWPMDecoder, UnionFindDecoder, build_matching_graph
from repro.stab import DemSampler, circuit_to_dem
from repro.stab.dem import DemError, DetectorErrorModel


def _chain_graph(n=4, obs_on_all=True):
    errors = [DemError(0.1, (0,), (0,) if obs_on_all else ())]
    for i in range(n - 1):
        errors.append(DemError(0.1, (i, i + 1), (0,) if obs_on_all else ()))
    errors.append(DemError(0.1, (n - 1,), (0,) if obs_on_all else ()))
    return build_matching_graph(
        DetectorErrorModel.from_errors(
            errors=errors,
            num_detectors=n,
            num_observables=1,
            detector_coords=[()] * n,
            detector_basis=["Z"] * n,
        )
    )


def test_empty_syndrome_decodes_to_identity():
    g = _chain_graph()
    assert UnionFindDecoder(g).decode(np.zeros(4, dtype=bool)) == 0


def test_single_defect_matches_to_nearest_boundary():
    g = _chain_graph()
    dec = UnionFindDecoder(g)
    syndrome = np.zeros(4, dtype=bool)
    syndrome[0] = True  # adjacent to left boundary: one boundary edge
    assert dec.decode(syndrome) == 1


def test_defect_pair_matches_internally():
    g = _chain_graph()
    dec = UnionFindDecoder(g)
    syndrome = np.zeros(4, dtype=bool)
    syndrome[1] = syndrome[2] = True  # one internal edge, obs flips once
    assert dec.decode(syndrome) == 1


def test_decode_batch_matches_single_shot():
    g = _chain_graph()
    dec = UnionFindDecoder(g)
    rng = np.random.default_rng(0)
    dets = rng.random((50, 4)) < 0.3
    batch = dec.decode_batch(dets)
    for i in range(50):
        assert batch[i, 0] == bool(dec.decode(dets[i]) & 1)


def _surface_pipeline(d, noise, rounds=None):
    art = memory_experiment(d, rounds or d, noise)
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    return dem, graph


def test_every_single_error_corrected_d3(quiet_noise):
    """Distance 3 must correct every weight-1 error mechanism exactly."""
    dem, graph = _surface_pipeline(3, quiet_noise)
    decoder = UnionFindDecoder(graph)
    dem_z = dem.filtered("Z")
    for err in dem_z.errors:
        syndrome = np.zeros(graph.num_detectors, dtype=bool)
        for det in err.detectors:
            syndrome[det] = True
        predicted = decoder.decode(syndrome)
        actual = sum(1 << o for o in err.observables)
        assert predicted == actual, f"failed on {err}"


def test_unionfind_close_to_mwpm(quiet_noise):
    dem, graph = _surface_pipeline(3, quiet_noise)
    det, obs = DemSampler(dem).sample(20000, rng=9)
    uf = UnionFindDecoder(graph).decode_batch(det)
    mw = MWPMDecoder(graph).decode_batch(det)
    ler_uf = (uf[:, :1] ^ obs).mean()
    ler_mw = (mw[:, :1] ^ obs).mean()
    # union-find must stay within 2x of exact matching at this scale
    assert ler_uf <= max(2.0 * ler_mw, 1e-3)
    # and the two must agree on the overwhelming majority of shots
    assert (uf[:, 0] == mw[:, 0]).mean() > 0.99


def test_isolated_odd_cluster_degrades_gracefully():
    """A defect with no edges at all must not hang the decoder."""
    g = build_matching_graph(
        DetectorErrorModel.from_errors(
            errors=[DemError(0.1, (0, 1), ())],
            num_detectors=3,  # detector 2 has no incident edges
            num_observables=1,
            detector_coords=[()] * 3,
            detector_basis=["Z"] * 3,
        )
    )
    dec = UnionFindDecoder(g)
    syndrome = np.array([False, False, True])
    assert dec.decode(syndrome) == 0  # gives up cleanly


def test_weighted_growth_prefers_cheap_edges():
    """Two paths between defects: matching follows the high-probability one."""
    errors = [
        DemError(0.4, (0, 1), ()),  # cheap direct edge, no obs flip
        DemError(0.001, (0,), (0,)),  # expensive boundary edges flipping obs
        DemError(0.001, (1,), (0,)),
    ]
    g = build_matching_graph(
        DetectorErrorModel.from_errors(
            errors=errors,
            num_detectors=2,
            num_observables=1,
            detector_coords=[(), ()],
            detector_basis=["Z", "Z"],
        )
    )
    dec = UnionFindDecoder(g)
    assert dec.decode(np.array([True, True])) == 0
