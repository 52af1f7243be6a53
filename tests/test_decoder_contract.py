"""Cross-decoder contract suite: metamorphic and property-based fuzzing.

The trick that makes the matching contract *directly* checkable: random
matching graphs are built with **one observable bit per error**, so every
edge owns a distinct bit and a prediction bitmask IS the chosen correction's
edge set (mod 2).  That turns "the decoder returned a valid correction" into
linear algebra — the selected edges' incidence sum must reproduce the input
syndrome exactly (defect parity preservation; the boundary absorbs the
rest).  On top of that, every decoder, on the scalar path (no C library,
``factories.numpy_plane()``) and on the host's own path, must:

* return ``(shots, num_observables)`` bool predictions,
* be bit-identical across the two paths and across dedup on/off,
* be invariant under row duplication and permutation (metamorphic), and
* for the predecoded path, equal the manual predecode -> decode -> XOR
  composition, with offload statistics matching the scalar reference.

Everything is seeded: a failure reproduces from the printed parameters.
"""

import numpy as np
import pytest

from factories import DECODE_PATHS, build_dem_graph, build_dense_syndromes
from repro.decoders import (
    BatchDecodingEngine,
    LookupTableDecoder,
    MWPMDecoder,
    PredecodedDecoder,
    Predecoder,
    UnionFindDecoder,
)

GRAPH_SEEDS = [0, 1, 2, 3, 4]

DECODERS = ["unionfind", "mwpm", "predecoded", "predecoded-mwpm", "hierarchical"]


def _build(name, graph):
    if name == "unionfind":
        return UnionFindDecoder(graph)
    if name == "mwpm":
        return MWPMDecoder(graph)
    if name == "predecoded":
        return PredecodedDecoder(graph, UnionFindDecoder(graph))
    if name == "predecoded-mwpm":
        return PredecodedDecoder(graph, MWPMDecoder(graph))
    from repro.decoders import HierarchicalDecoder

    return HierarchicalDecoder(graph, lut_size_bytes=512, lut_max_errors=1)


def random_matching_graph(seed: int):
    """A random connected matching graph with one observable bit per error.

    A chain backbone guarantees connectivity, random chords add cycles and
    parallel edges, and at least one boundary edge guarantees odd defect
    sets stay decodable.  Probabilities are drawn per edge, so edge weights
    (and hence shortest paths and growth schedules) vary per seed.
    """
    rng = np.random.default_rng(seed)
    ndet = int(rng.integers(5, 12))
    errors = []

    def add(dets):
        errors.append((float(rng.uniform(0.01, 0.3)), dets, (len(errors),)))

    for i in range(ndet - 1):  # connected backbone
        add((i, i + 1))
    for _ in range(int(rng.integers(0, ndet))):  # chords / parallel edges
        u, v = (int(x) for x in rng.choice(ndet, size=2, replace=False))
        add((u, v))
    n_boundary = int(rng.integers(1, max(2, ndet // 2)))
    for node in rng.choice(ndet, size=n_boundary, replace=False):
        add((int(node),))
    return build_dem_graph(errors, ndet, nobs=len(errors))


def _edge_incidence(graph) -> np.ndarray:
    """(num_observables, num_detectors) GF(2) incidence of the edge bits."""
    M = np.zeros((graph.num_observables, graph.num_detectors), dtype=np.int8)
    for e in range(graph.num_edges):
        obs = int(graph.edge_obs[e])
        bit = obs.bit_length() - 1
        assert obs == 1 << bit, "contract graphs carry one obs bit per edge"
        for node in (int(graph.edge_u[e]), int(graph.edge_v[e])):
            if node < graph.num_detectors:
                M[bit, node] ^= 1
    return M


def assert_valid_correction(graph, det: np.ndarray, pred: np.ndarray) -> None:
    """The predicted edge set must reproduce the syndrome it corrects."""
    flips = (pred.astype(np.int8) @ _edge_incidence(graph)) % 2
    assert np.array_equal(flips.astype(bool), det)


# ---------------------------------------------------------------------------
# the fundamental contract: shape, validity, decode-path identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
@pytest.mark.parametrize("decoder_name", DECODERS)
def test_correction_preserves_defect_parity(decoder_name, seed):
    graph = random_matching_graph(seed)
    density = [0.05, 0.15, 0.4][seed % 3]
    det = build_dense_syndromes(graph, 150, density, seed=1000 + seed)
    reference = None
    for backend, path in DECODE_PATHS:
        with path():
            out = _build(decoder_name, graph).decode_batch(det)
        assert out.shape == (det.shape[0], graph.num_observables)
        assert out.dtype == np.bool_
        assert_valid_correction(graph, det, out)
        if reference is None:
            reference = out
        else:
            assert np.array_equal(out, reference), (decoder_name, seed, backend)


@pytest.mark.parametrize("seed", GRAPH_SEEDS[:3])
@pytest.mark.parametrize("decoder_name", DECODERS)
def test_dedup_vs_no_dedup_bit_identity(decoder_name, seed):
    graph = random_matching_graph(seed)
    det = build_dense_syndromes(graph, 120, 0.2, seed=2000 + seed)
    scalar = _build(decoder_name, graph).decode_batch(det, dedup=False)
    for backend, path in DECODE_PATHS:
        with path():
            dedup = _build(decoder_name, graph).decode_batch(det, dedup=True)
        assert np.array_equal(dedup, scalar), (decoder_name, seed, backend)


@pytest.mark.parametrize("seed", GRAPH_SEEDS[:3])
def test_decode_batch_invariant_under_duplication_and_permutation(seed):
    graph = random_matching_graph(seed)
    det = build_dense_syndromes(graph, 80, 0.25, seed=3000 + seed)
    rng = np.random.default_rng(seed)
    doubled = np.concatenate([det, det[::-1]])
    perm = rng.permutation(det.shape[0])
    for _, path in DECODE_PATHS:
        with path():
            base = _build("unionfind", graph).decode_batch(det)
            twice = _build("unionfind", graph).decode_batch(doubled)
            shuffled = _build("unionfind", graph).decode_batch(det[perm])
        assert np.array_equal(twice[: det.shape[0]], base)
        assert np.array_equal(twice[det.shape[0] :], base[::-1])
        assert np.array_equal(shuffled, base[perm])


# ---------------------------------------------------------------------------
# predecode -> decode composition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
@pytest.mark.parametrize("slow_name", ["unionfind", "mwpm"])
def test_predecode_then_decode_equals_scalar_composition(seed, slow_name):
    graph = random_matching_graph(seed)
    det = build_dense_syndromes(graph, 100, 0.15, seed=4000 + seed)
    pre = Predecoder(graph)
    slow = _build(slow_name, graph)
    expected = np.zeros(det.shape[0], dtype=np.uint64)
    for i in range(det.shape[0]):
        residual, mask, _ = pre.apply(det[i])
        if residual.any():
            mask ^= slow.decode(residual)
        expected[i] = mask
    nobs = graph.num_observables
    bits = np.left_shift(np.uint64(1), np.arange(nobs, dtype=np.uint64))
    expected_rows = (expected[:, None] & bits[None, :]) != 0
    ref_stats = None
    for backend, path in DECODE_PATHS:
        wrapped = _build(
            "predecoded" if slow_name == "unionfind" else "predecoded-mwpm", graph
        )
        with path():
            out = wrapped.decode_batch(det)
        assert np.array_equal(out, expected_rows), (seed, slow_name, backend)
        if ref_stats is None:
            ref_stats = vars(wrapped.stats).copy()
        else:
            assert vars(wrapped.stats) == ref_stats, (seed, slow_name, backend)


# ---------------------------------------------------------------------------
# LUT decoder: contract holds on the syndromes it covers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRAPH_SEEDS[:3])
def test_lut_decoder_contract_on_enumerable_syndromes(seed):
    graph = random_matching_graph(seed)
    lut = LookupTableDecoder(graph, max_errors=2)
    rng = np.random.default_rng(5000 + seed)
    det = np.zeros((60, graph.num_detectors), dtype=bool)
    for i in range(det.shape[0]):  # syndromes of <= 2 random edges: all hits
        for e in rng.choice(graph.num_edges, size=rng.integers(0, 3), replace=False):
            for node in (int(graph.edge_u[e]), int(graph.edge_v[e])):
                if node < graph.num_detectors:
                    det[i, node] ^= True
    reference = None
    for _, path in DECODE_PATHS:
        with path():
            out = LookupTableDecoder(graph, max_errors=2).decode_batch(det)
        assert_valid_correction(graph, det, out)
        if reference is None:
            reference = out
        else:
            assert np.array_equal(out, reference)
    assert np.array_equal(lut.decode_batch(det, dedup=False), reference)


# ---------------------------------------------------------------------------
# engine-level contract: stats agree with predictions on both decode paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("decoder_name", DECODERS)
def test_engine_counters_identical_across_backends(decoder_name):
    graph = random_matching_graph(7)
    det = build_dense_syndromes(graph, 200, 0.1, seed=6000)
    reference = None
    for backend, path in DECODE_PATHS:
        engine = BatchDecodingEngine(_build(decoder_name, graph))
        with path():
            engine.decode_batch(det)
        counters = vars(engine.stats).copy()
        counters.pop("decode_seconds")
        if reference is None:
            reference = counters
        else:
            assert counters == reference, (decoder_name, backend)


# ---------------------------------------------------------------------------
# nested wrappers: inner statistics must match the scalar pass too
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRAPH_SEEDS[:2])
def test_nested_predecoder_inner_stats_match_scalar(seed):
    """A predecoder wrapping a predecoder: the scalar pass reaches the inner
    decoder with multiplicity 1 per residual row, and the composed kernels
    must weight the inner offload statistics identically."""
    graph = random_matching_graph(seed)
    det = build_dense_syndromes(graph, 100, 0.2, seed=7000 + seed)
    det = np.concatenate([det, det[:40]])  # duplicated rows: dedup counts > 1
    reference = ref_outer = ref_inner = None
    for backend, path in DECODE_PATHS:
        inner = PredecodedDecoder(graph, UnionFindDecoder(graph))
        outer = PredecodedDecoder(graph, inner)
        with path():
            out = outer.decode_batch(det)
        assert_valid_correction(graph, det, out)
        if reference is None:
            reference = out
            ref_outer = vars(outer.stats).copy()
            ref_inner = vars(inner.stats).copy()
        else:
            assert np.array_equal(out, reference), (seed, backend)
            assert vars(outer.stats) == ref_outer, (seed, backend)
            assert vars(inner.stats) == ref_inner, (seed, backend)
