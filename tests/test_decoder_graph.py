"""Matching-graph construction and graphlike-distance tests."""

import graph_oracle
import numpy as np
import pytest
from factories import d9_cold_dem, random_dem

from repro.decoders import build_matching_graph, graphlike_distance
from repro.stab.dem import DemError, DetectorErrorModel


def _dem(errors, ndet, nobs=1):
    return DetectorErrorModel.from_errors(
        errors=[DemError(p, d, o) for p, d, o in errors],
        num_detectors=ndet,
        num_observables=nobs,
        detector_coords=[() for _ in range(ndet)],
        detector_basis=["Z"] * ndet,
    )


def test_boundary_and_bulk_edges():
    dem = _dem(
        [
            (0.1, (0,), (0,)),  # boundary edge flipping the observable
            (0.1, (0, 1), ()),  # bulk edge
            (0.1, (1,), ()),  # boundary edge
        ],
        ndet=2,
    )
    g = build_matching_graph(dem)
    assert g.num_edges == 3
    assert g.boundary_node == 2
    assert set(zip(g.edge_u.tolist(), g.edge_v.tolist())) == {(0, 2), (0, 1), (1, 2)}


def test_parallel_edges_with_distinct_obs_kept():
    dem = _dem([(0.1, (0, 1), ()), (0.05, (0, 1), (0,))], ndet=2)
    g = build_matching_graph(dem)
    assert g.num_edges == 2
    masks = set(g.edge_obs.tolist())
    assert masks == {0, 1}


def test_same_signature_probabilities_combine():
    dem = _dem([(0.1, (0, 1), ()), (0.2, (0, 1), ())], ndet=2)
    g = build_matching_graph(dem)
    assert g.num_edges == 1
    assert g.edge_prob[0] == pytest.approx(0.1 * 0.8 + 0.2 * 0.9)


def test_undetectable_obs_probability_recorded():
    dem = _dem([(0.01, (), (0,)), (0.1, (0,), ())], ndet=1)
    g = build_matching_graph(dem)
    assert g.undetectable_obs_probability[0] == pytest.approx(0.01)


def test_composite_error_decomposed_into_known_edges():
    dem = _dem(
        [
            (0.1, (0, 1), ()),
            (0.1, (2, 3), (0,)),
            (0.01, (0, 1, 2, 3), (0,)),  # must split into the two known pairs
        ],
        ndet=4,
    )
    g = build_matching_graph(dem)
    assert g.decomposition_fallbacks == 0
    assert g.num_edges == 2
    pair_01 = np.flatnonzero((g.edge_u == 0) & (g.edge_v == 1))[0]
    assert g.edge_prob[pair_01] == pytest.approx(0.1 * 0.99 + 0.01 * 0.9)


def test_composite_fallback_counted():
    dem = _dem([(0.01, (0, 1, 2), ())], ndet=3)
    g = build_matching_graph(dem)
    assert g.decomposition_fallbacks == 1


def test_weights_positive_and_monotone():
    dem = _dem([(0.01, (0, 1), ()), (0.2, (1, 2), ())], ndet=3)
    g = build_matching_graph(dem)
    w = dict(zip(zip(g.edge_u.tolist(), g.edge_v.tolist()), g.edge_weight.tolist()))
    assert w[(0, 1)] > w[(1, 2)] > 0


def test_integer_weights_are_even_and_positive():
    dem = _dem([(0.01, (0, 1), ()), (0.2, (1, 2), ())], ndet=3)
    g = build_matching_graph(dem)
    iw = g.integer_weights()
    assert (iw >= 2).all()
    assert (iw % 2 == 0).all()


def test_graphlike_distance_chain():
    # boundary - 0 - 1 - 2 - boundary; the logical crosses the chain once,
    # so the shortest undetectable observable flip is the full 4-edge chain.
    dem = _dem(
        [
            (0.1, (0,), (0,)),
            (0.1, (0, 1), ()),
            (0.1, (1, 2), ()),
            (0.1, (2,), ()),
        ],
        ndet=3,
    )
    g = build_matching_graph(dem)
    assert graphlike_distance(g, 0) == 4


def test_graphlike_distance_short_circuit():
    # two boundary edges on the same detector, one flips the observable
    dem = _dem([(0.1, (0,), (0,)), (0.1, (0,), ())], ndet=1)
    g = build_matching_graph(dem)
    assert graphlike_distance(g, 0) == 2


def test_graphlike_distance_unreachable():
    dem = _dem([(0.1, (0, 1), ())], ndet=2)
    g = build_matching_graph(dem)
    assert graphlike_distance(g, 0) == -1


def test_basis_filter_restricts_detectors():
    dem = DetectorErrorModel.from_errors(
        errors=[DemError(0.1, (0,), ()), DemError(0.1, (1,), (0,))],
        num_detectors=2,
        num_observables=1,
        detector_coords=[(), ()],
        detector_basis=["X", "Z"],
    )
    g = build_matching_graph(dem, basis="Z")
    assert g.num_detectors == 1
    assert g.num_edges == 1
    assert g.edge_obs[0] == 1


def _loop_adjacency(graph):
    """The per-edge CSR fill ``MatchingGraph.adjacency`` replaced."""
    n = graph.num_detectors + 1
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, graph.edge_u, 1)
    np.add.at(counts, graph.edge_v, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    edges = np.zeros(indptr[-1], dtype=np.int64)
    fill = indptr[:-1].copy()
    for e in range(graph.num_edges):
        for node in (int(graph.edge_u[e]), int(graph.edge_v[e])):
            edges[fill[node]] = e
            fill[node] += 1
    return indptr, edges


def _assert_adjacency_matches_loop(graph):
    indptr, edges = graph.adjacency()
    ref_indptr, ref_edges = _loop_adjacency(graph)
    assert indptr.dtype == edges.dtype == np.int64
    assert np.array_equal(indptr, ref_indptr)
    assert np.array_equal(edges, ref_edges)


@pytest.mark.parametrize("policy_name", ["passive", "active"])
def test_adjacency_matches_the_per_edge_loop_on_surgery_graphs(policy_name):
    from repro.core.policies import make_policy
    from repro.experiments.ler import SurgeryLerConfig, prepared_pipeline
    from repro.noise import IBM

    config = SurgeryLerConfig(distance=3, hardware=IBM, policy_name=policy_name, tau_ns=1000.0)
    _assert_adjacency_matches_loop(prepared_pipeline(config, make_policy(policy_name)).graph)


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_matches_the_per_edge_loop_on_random_graphs(seed):
    from repro.decoders.graph import MatchingGraph

    rng = np.random.default_rng(seed)
    ndet = int(rng.integers(1, 40))
    n_edges = int(rng.integers(0, 120))
    u = rng.integers(0, ndet + 1, size=n_edges)
    v = rng.integers(0, ndet + 1, size=n_edges)  # repeats and parallel edges
    prob = np.full(n_edges, 0.01)
    graph = MatchingGraph(
        num_detectors=ndet,
        num_observables=1,
        edge_u=u.astype(np.int64),
        edge_v=v.astype(np.int64),
        edge_prob=prob,
        edge_weight=np.log((1 - prob) / prob),
        edge_obs=np.zeros(n_edges, dtype=np.uint64),
    )
    _assert_adjacency_matches_loop(graph)


# ---------------------------------------------------------------------------
# array builder vs the per-error oracle (tests/graph_oracle.py)
# ---------------------------------------------------------------------------

_GRAPH_ARRAYS = (
    "edge_u", "edge_v", "edge_prob", "edge_weight", "edge_obs", "undetectable_obs_probability"
)


def _assert_same_graph(graph, ref):
    for name in _GRAPH_ARRAYS:
        got, want = getattr(graph, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # bit-exact, signed zeros included
    assert graph.decomposition_fallbacks == ref.decomposition_fallbacks
    assert (graph.num_detectors, graph.num_observables) == (ref.num_detectors, ref.num_observables)


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("basis", [None, "X", "Z"])
def test_graph_matches_oracle_on_random_dems(seed, basis):
    dem = random_dem(seed)
    _assert_same_graph(
        build_matching_graph(dem, basis=basis), graph_oracle.build_matching_graph(dem, basis=basis)
    )
    if basis is not None:
        assert dem.filtered(basis).errors == graph_oracle.filtered(dem, basis).errors


def test_random_dems_cover_every_row_shape():
    """The random DEMs above reach every merge and decomposition branch."""
    seen = set()
    for seed in range(60):
        dem = random_dem(seed)
        rows = [(e.detectors, e.observables) for e in dem.errors]
        edge_keys = [(tuple(sorted(d)), o) for d, o in rows if 1 <= len(d) <= 2]
        if len(set(edge_keys)) < len(edge_keys):
            seen.add("repeated key")
        if any(not d and o for d, o in rows):
            seen.add("zero-detector observable error")
        probs = [e.probability for e in dem.errors]
        if 0.5 in probs:
            seen.add("p == 0.5")
        if any(p > 0.5 for p in probs):
            seen.add("p > 0.5")
        graph = build_matching_graph(dem)
        composites = sum(len(d) > 2 for d, _ in rows)
        if graph.decomposition_fallbacks:
            seen.add("non-decomposable composite")
        if composites > graph.decomposition_fallbacks:
            seen.add("decomposed composite")
        for basis in "XZ":
            keep = {j for j, b in enumerate(dem.detector_basis) if b == basis}
            projected = {}
            for d, o in set(rows):
                key = (tuple(sorted(x for x in d if x in keep)), o)
                projected[key] = projected.get(key, 0) + 1
            if any(n > 1 for (d, o), n in projected.items() if d or o):
                seen.add("projection merges signatures")
    assert seen == {
        "repeated key",
        "zero-detector observable error",
        "p == 0.5",
        "p > 0.5",
        "non-decomposable composite",
        "decomposed composite",
        "projection merges signatures",
    }


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_graph_matches_oracle_on_the_d9_cold_point(basis):
    dem = d9_cold_dem()
    assert dem.filtered(basis).errors == graph_oracle.filtered(dem, basis).errors
    _assert_same_graph(
        build_matching_graph(dem, basis=basis), graph_oracle.build_matching_graph(dem, basis=basis)
    )
