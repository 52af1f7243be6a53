"""Decode-kernel backend tests: registry, selection, and the parity matrix.

The backend contract is *bit-identity*: every registered backend must
produce exactly the predictions — and exactly the dedup-engine statistics —
of the ``python`` reference pass, for every decoder, across the full
``(d, p)`` grid.  Since the wrapped and hybrid paths gained kernels, the
matrix also asserts the predecoder's offload statistics
(:class:`PredecodeStats`) match the scalar pass bit for bit.  The batched
union-find kernel is additionally fuzzed on random syndrome matrices (where
cluster growth and peeling interact far more than at physical error rates)
and exercised across block boundaries; the C kernel of the ``cext`` backend
is fuzzed against the scalar decoder on the benchmark's d=3 Extra Rounds
graph.  Backend *degradation* (no C compiler, a failing build) is tested by
monkeypatching the compiler lookup away.
"""

import os
import shutil
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factories import build_dem_graph, build_dense_syndromes, numpy_plane
from repro.codes.repetition import repetition_experiment
from repro.decoders import (
    BatchDecodingEngine,
    HierarchicalDecoder,
    LookupTableDecoder,
    MWPMDecoder,
    PredecodedDecoder,
    UnionFindDecoder,
    build_matching_graph,
    kernels,
)
from repro.decoders.kernels import (
    AUTO_ORDER,
    BatchedHierarchical,
    BatchedMWPM,
    BatchedPredecode,
    BatchedUnionFind,
    CextBackend,
    KernelBackend,
    NumpyBackend,
    PythonBackend,
    cext,
    plane,
)
from repro.core.policies import make_policy
from repro.decoders.graph import MatchingGraph
from repro.experiments.ler import SurgeryLerConfig, prepared_pipeline, run_surgery_ler
from repro.noise import GOOGLE, NoiseModel
from repro.stab import DemSampler, circuit_to_dem

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


@pytest.fixture
def no_compiler(monkeypatch):
    """A host without ``cc``: the cached C build is dropped for the test."""
    monkeypatch.setattr(shutil, "which", lambda cmd, *args, **kwargs: None)
    monkeypatch.setattr(kernels, "_FALLBACK_WARNED", set())
    cext.library.cache_clear()
    yield
    cext.library.cache_clear()


# ---------------------------------------------------------------------------
# registry and selection
# ---------------------------------------------------------------------------


def test_builtin_backends_registered():
    assert {"python", "numpy", "cext"} <= set(kernels.names())
    assert "python" in kernels.available()
    assert "numpy" in kernels.available()  # numpy is a hard dependency


def test_cext_builds_whenever_a_compiler_is_present():
    """A silently failed build would turn the parity matrix into numpy-vs-numpy."""
    assert kernels.get("cext").available() == (shutil.which("cc") is not None)
    if shutil.which("cc") is not None:
        assert kernels.resolve("auto").name == "cext"


def test_get_unknown_backend_is_a_clear_error():
    with pytest.raises(KeyError, match="no-such-backend"):
        kernels.get("no-such-backend")


def test_resolve_explicit_and_auto():
    assert kernels.resolve("python").name == "python"
    assert kernels.resolve("numpy").name == "numpy"
    auto = kernels.resolve("auto")
    assert auto.name in AUTO_ORDER
    assert auto.available()


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_DECODE_BACKEND", "python")
    assert kernels.resolve(None).name == "python"
    monkeypatch.setenv("REPRO_DECODE_BACKEND", "")
    assert kernels.resolve(None).available()


def test_capability_flags():
    assert kernels.capabilities("python") == frozenset()
    assert kernels.capabilities("numpy") == {
        "unionfind",
        "predecoded",
        "hierarchical",
        "mwpm",
    }
    # resolution first: the flags reported for cext are those of the
    # backend actually used (cext itself when it builds, else numpy) —
    # identical sets either way
    assert kernels.capabilities("cext") == kernels.capabilities("numpy")


def test_register_custom_backend_and_replace_guard():
    class _Null(KernelBackend):
        name = "test-null"

    kernels.register(_Null())
    try:
        assert "test-null" in kernels.names()
        assert kernels.resolve("test-null").name == "test-null"
        with pytest.raises(ValueError):
            kernels.register(_Null())
        kernels.register(_Null(), replace=True)
        with pytest.raises(ValueError):
            kernels.register(KernelBackend())  # empty name
    finally:
        kernels._REGISTRY.pop("test-null", None)


def test_python_backend_binds_nothing(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    assert PythonBackend().bind(UnionFindDecoder(graph)) is None


def test_numpy_backend_binds_every_stock_decoder_family(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    backend = NumpyBackend()
    dec = UnionFindDecoder(graph)
    kernel = backend.bind(dec)
    assert isinstance(kernel, BatchedUnionFind)
    assert backend.bind(dec) is kernel  # cached per decoder instance

    wrapped = PredecodedDecoder(graph, UnionFindDecoder(graph))
    pk = backend.bind(wrapped)
    assert isinstance(pk, BatchedPredecode)
    # predecode-kernel -> inner-decoder kernel composition
    assert isinstance(pk.inner, BatchedUnionFind)
    assert pk.inner is backend.bind(wrapped.slow)

    hier = HierarchicalDecoder(graph, lut_size_bytes=4096)
    hk = backend.bind(hier)
    assert isinstance(hk, BatchedHierarchical)
    assert isinstance(hk.inner, BatchedUnionFind)

    assert isinstance(backend.bind(MWPMDecoder(graph)), BatchedMWPM)
    # a predecoder over MWPM composes with the MWPM kernel
    over_mwpm = PredecodedDecoder(graph, MWPMDecoder(graph))
    assert isinstance(backend.bind(over_mwpm).inner, BatchedMWPM)
    # the LUT decoder stays scalar under every backend
    assert backend.bind(LookupTableDecoder(graph, max_errors=1)) is None


def test_numpy_backend_skips_overridden_decode_paths(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    backend = NumpyBackend()

    class _CountingUF(UnionFindDecoder):
        def decode(self, detectors):
            return super().decode(detectors)

    class _CountingPre(PredecodedDecoder):
        def _decode_rows(self, rows, counts):
            return super()._decode_rows(rows, counts)

    class _CountingMWPM(MWPMDecoder):
        def _decode_defects(self, defects):
            return super()._decode_defects(defects)

    assert backend.bind(_CountingUF(graph)) is None
    assert backend.bind(_CountingPre(graph, UnionFindDecoder(graph))) is None
    assert backend.bind(_CountingMWPM(graph)) is None
    # ... but a stock wrapper around an overridden inner decoder still gets
    # the predecode kernel, with the inner rows falling back to scalar
    wrapped = PredecodedDecoder(graph, _CountingUF(graph))
    kernel = backend.bind(wrapped)
    assert isinstance(kernel, BatchedPredecode)
    assert kernel.inner is None


@requires_cc
def test_cext_backend_swaps_only_the_unionfind_kernel(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    backend = CextBackend()
    dec = UnionFindDecoder(graph)
    kernel = backend.bind(dec)
    assert isinstance(kernel, cext.CextUnionFind)
    assert backend.bind(dec) is kernel  # cached per decoder instance
    # wrappers over union-find pick the C kernel up as their inner kernel
    pk = backend.bind(PredecodedDecoder(graph, UnionFindDecoder(graph)))
    assert isinstance(pk, BatchedPredecode)
    assert isinstance(pk.inner, cext.CextUnionFind)
    hk = backend.bind(HierarchicalDecoder(graph, lut_size_bytes=4096))
    assert isinstance(hk, BatchedHierarchical)
    assert isinstance(hk.inner, cext.CextUnionFind)
    # MWPM keeps the numpy backend's kernel; overridden paths stay scalar
    assert isinstance(backend.bind(MWPMDecoder(graph)), BatchedMWPM)

    class _CountingUF(UnionFindDecoder):
        def decode(self, detectors):
            return super().decode(detectors)

    assert backend.bind(_CountingUF(graph)) is None


# ---------------------------------------------------------------------------
# backend degradation: no compiler, failing builds
# ---------------------------------------------------------------------------


def test_missing_compiler_reports_honestly_and_degrades(no_compiler):
    assert not kernels.get("cext").available()
    assert "cext" not in kernels.available()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert kernels.resolve("cext").name == "numpy"
        assert kernels.resolve("cext").name == "numpy"
        assert kernels.resolve("auto").name == "numpy"
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
        "decode backend 'cext' is unavailable (missing dependency); falling "
        "back to 'numpy' — results are bit-identical, only throughput differs"
    ]


def test_failing_compile_degrades_instead_of_raising(tmp_path, monkeypatch):
    broken = tmp_path / "uf.c"
    broken.write_text("this is not C\n")
    cache = tmp_path / "cache"
    assert cext.build(broken, cache=cache) is None
    # the failed compile leaves nothing behind for a later load to trip on
    assert list(cache.iterdir()) == []

    monkeypatch.setattr(cext, "SOURCE", broken)
    monkeypatch.setattr(cext, "cache_dir", lambda: cache)
    monkeypatch.setattr(kernels, "_FALLBACK_WARNED", set())
    cext.library.cache_clear()
    try:
        assert not kernels.get("cext").available()
        with pytest.warns(RuntimeWarning, match="'cext'.*falling back to 'numpy'"):
            assert kernels.resolve("cext").name == "numpy"
    finally:
        cext.library.cache_clear()


@requires_cc
def test_cext_build_is_cached_atomically(tmp_path):
    cache = tmp_path / "cache"
    assert cext.build(cext.SOURCE, cache=cache) is not None
    built = list(cache.iterdir())
    # one finished library named by its 16-hex key, no temporary leftovers
    assert len(built) == 1 and built[0].suffix == ".so"
    assert len(built[0].stem) == 16
    stamp = built[0].stat().st_mtime_ns
    assert cext.build(cext.SOURCE, cache=cache) is not None
    assert list(cache.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp  # reused, not rebuilt


@requires_cc
def test_unwritable_cache_falls_back_to_a_private_build(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    assert cext.build(cext.SOURCE, cache=blocker / "kernels") is not None


def test_fallback_chain_walks_cext_numpy_python(no_compiler, monkeypatch):
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    assert kernels.available() == ["python"]
    # the two-hop chain: cext -> numpy -> python
    assert kernels.resolve("cext").name == "python"
    assert kernels.resolve("numpy").name == "python"
    assert kernels.resolve("auto").name == "python"
    assert kernels.capabilities("numpy") == frozenset()


def test_degradation_warns_once_per_process_naming_the_fallback(
    no_compiler, monkeypatch
):
    """CI logs must show which backend actually ran the parity matrix."""
    with pytest.warns(RuntimeWarning, match="'cext'.*falling back to 'numpy'"):
        assert kernels.resolve("cext").name == "numpy"
    # second resolution of the same degradation is quiet (once per process)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.resolve("cext").name == "numpy"
        # available backends and `auto` never warn
        assert kernels.resolve("auto").name == "numpy"
        assert kernels.resolve("numpy").name == "numpy"
    # a *different* degradation pair warns again
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    with pytest.warns(RuntimeWarning, match="falling back to 'python'"):
        assert kernels.resolve("cext").name == "python"


def test_degraded_backend_still_decodes_identically(
    parity_grid, no_compiler, monkeypatch
):
    graph, det = parity_grid[(3, 2e-3)]
    reference = BatchDecodingEngine(
        UnionFindDecoder(graph), backend="python"
    ).decode_batch(det)
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    with pytest.warns(RuntimeWarning, match="falling back to 'python'"):
        degraded = BatchDecodingEngine(
            UnionFindDecoder(graph), backend="cext"
        ).decode_batch(det)
    assert np.array_equal(degraded, reference)


# ---------------------------------------------------------------------------
# the parity matrix: backend x decoder x (d, p)
# ---------------------------------------------------------------------------


def _build(factory, graph):
    if factory == "unionfind":
        return UnionFindDecoder(graph)
    if factory == "mwpm":
        return MWPMDecoder(graph)
    if factory == "predecoded":
        return PredecodedDecoder(graph, UnionFindDecoder(graph))
    return HierarchicalDecoder(graph, lut_size_bytes=4096)


def _stat_counters(engine):
    counters = vars(engine.stats).copy()
    counters.pop("decode_seconds")  # wall time: the only non-deterministic stat
    return counters


@pytest.mark.parametrize("point", [(3, 2e-3), (3, 5e-3), (5, 1e-3)])
@pytest.mark.parametrize("factory", ["unionfind", "mwpm", "predecoded", "hierarchical"])
def test_backend_parity_matrix(parity_grid, backend_names, point, factory):
    graph, det = parity_grid[point]
    if factory != "unionfind":
        det = det[:400]  # slow decoders decode a thinner slice of each point
    reference = ref_counters = ref_predecode = None
    for name in backend_names:
        decoder = _build(factory, graph)
        engine = BatchDecodingEngine(decoder, backend=name)
        predictions = engine.decode_batch(det)
        counters = _stat_counters(engine)
        predecode = vars(engine.decoder_stats) if factory == "predecoded" else None
        assert predecode is None or predecode["shots"] == det.shape[0]
        if reference is None:  # the python reference pass comes first
            reference, ref_counters, ref_predecode = predictions, counters, predecode
        else:
            assert np.array_equal(predictions, reference), (
                f"backend {name!r} diverged from python for {factory} at {point}"
            )
            assert counters == ref_counters, (
                f"backend {name!r} stats diverged from python for {factory} at {point}"
            )
            assert predecode == ref_predecode, (
                f"backend {name!r} PredecodeStats diverged for {factory} at {point}"
            )


def test_backend_parity_lut_decoder(backend_names):
    noise = NoiseModel(hardware=GOOGLE, p=1e-2)
    art = repetition_experiment(3, 2, noise)
    graph = build_matching_graph(circuit_to_dem(art.circuit), basis="Z")
    det, _ = DemSampler(circuit_to_dem(art.circuit)).sample(500, rng=17)
    reference = None
    for name in backend_names:
        engine = BatchDecodingEngine(LookupTableDecoder(graph, max_errors=4), backend=name)
        predictions = engine.decode_batch(det)
        if reference is None:
            reference = predictions
        else:
            assert np.array_equal(predictions, reference)


@pytest.mark.parametrize("factory", ["unionfind", "mwpm", "hierarchical"])
def test_backend_parity_over_overlapping_batches(parity_grid, backend_names, factory):
    """Overlapping batches through one engine: same masks and counters per backend."""
    graph, det = parity_grid[(3, 5e-3)]
    batches = [det[:300], det[150:450], det[:300]]
    engines = {
        name: BatchDecodingEngine(_build(factory, graph), backend=name)
        for name in backend_names
    }
    for batch in batches:
        out = {n: e.decode_batch(batch) for n, e in engines.items()}
        for name in backend_names[1:]:
            assert np.array_equal(out[name], out["python"]), name
    reference = _stat_counters(engines["python"])
    for name in backend_names[1:]:
        assert _stat_counters(engines[name]) == reference, name
    # no memo across batches: the repeated batch is decoded again
    assert reference["decode_calls"] == reference["distinct_syndromes"]


# ---------------------------------------------------------------------------
# the batched union-find kernel itself
# ---------------------------------------------------------------------------


def test_kernel_fuzz_on_random_syndromes(parity_grid):
    """Random dense syndromes: growth collisions, give-ups, big clusters."""
    graph, _ = parity_grid[(3, 2e-3)]
    dec = UnionFindDecoder(graph)
    kernel = BatchedUnionFind(dec, block_rows=37)  # force odd block splits
    for density in (0.01, 0.05, 0.2, 0.5):
        det = build_dense_syndromes(graph, 300, density, seed=int(density * 1000) + 99)
        reference = np.array(
            [dec.decode(det[i]) for i in range(det.shape[0])], dtype=np.uint64
        )
        assert np.array_equal(kernel.decode_rows(det), reference), density


def test_kernel_handles_empty_and_all_zero_input(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = BatchedUnionFind(UnionFindDecoder(graph))
    empty = kernel.decode_rows(np.zeros((0, graph.num_detectors), dtype=bool))
    assert empty.shape == (0,)
    zeros = kernel.decode_rows(np.zeros((5, graph.num_detectors), dtype=bool))
    assert not zeros.any()


@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda g: BatchedUnionFind(UnionFindDecoder(g)),
        lambda g: BatchedMWPM(MWPMDecoder(g)),
        lambda g: BatchedPredecode(PredecodedDecoder(g, UnionFindDecoder(g))),
        lambda g: BatchedHierarchical(HierarchicalDecoder(g, lut_size_bytes=4096)),
        pytest.param(
            lambda g: cext.CextUnionFind(UnionFindDecoder(g)), marks=requires_cc
        ),
    ],
)
def test_kernels_reject_bad_shapes(parity_grid, make_kernel):
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = make_kernel(graph)
    with pytest.raises(ValueError):
        kernel.decode_rows(np.zeros(graph.num_detectors, dtype=bool))
    with pytest.raises(ValueError):
        kernel.decode_rows(np.zeros((3, graph.num_detectors + 1), dtype=bool))


def test_kernel_block_boundaries_do_not_change_results(parity_grid):
    graph, det = parity_grid[(3, 5e-3)]
    dec = UnionFindDecoder(graph)
    whole = BatchedUnionFind(dec, block_rows=1 << 20).decode_rows(det[:500])
    for block in (1, 7, 64, 499, 500):
        split = BatchedUnionFind(dec, block_rows=block).decode_rows(det[:500])
        assert np.array_equal(split, whole), block


def test_mwpm_kernel_dijkstra_cache_is_stable_across_batches(parity_grid):
    """Rows served from the cached Dijkstra tables equal fresh decodes."""
    graph, det = parity_grid[(3, 5e-3)]
    dec = MWPMDecoder(graph)
    kernel = BatchedMWPM(dec)
    first = kernel.decode_rows(det[:200])
    again = kernel.decode_rows(det[:200])  # now fully from the node cache
    assert np.array_equal(first, again)
    fresh = BatchedMWPM(MWPMDecoder(graph)).decode_rows(det[:200])
    assert np.array_equal(first, fresh)


# ---------------------------------------------------------------------------
# the C union-find kernel (cext backend)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def extra_rounds_graph():
    """The benchmark sweep's d=3 Extra Rounds graph (tau = 1000 ns, E = 985)."""
    cfg = SurgeryLerConfig(
        distance=3,
        hardware=GOOGLE.with_cycle_time(1000.0),
        policy_name="extra_rounds",
        tau_ns=1000.0,
        t_pp_ns=1050.0,
    )
    graph = prepared_pipeline(cfg, make_policy("extra_rounds")).graph
    assert graph.num_edges == 985
    return graph


def _scalar_masks(decoder, rows):
    return np.array([decoder.decode(row) for row in rows], dtype=np.uint64)


@requires_cc
def test_cext_kernel_fuzz_parity(extra_rounds_graph):
    """Dense and boundary-heavy rows decode exactly like the scalar pass."""
    graph = extra_rounds_graph
    dec = UnionFindDecoder(graph)
    kernel = cext.CextUnionFind(dec)
    for density in (0.01, 0.05, 0.2, 0.5):
        det = build_dense_syndromes(graph, 200, density, seed=int(density * 1000) + 7)
        assert np.array_equal(kernel.decode_rows(det), _scalar_masks(dec, det)), density
    # boundary-heavy: defects only on nodes with a boundary edge, where
    # clusters neutralize by touching the boundary instead of each other
    near = np.union1d(
        graph.edge_u[graph.edge_v == graph.boundary_node],
        graph.edge_v[graph.edge_u == graph.boundary_node],
    )
    near = near[near != graph.boundary_node]
    rng = np.random.default_rng(11)
    det = np.zeros((300, graph.num_detectors), dtype=bool)
    det[:, near] = rng.random((300, near.size)) < 0.4
    assert np.array_equal(kernel.decode_rows(det), _scalar_masks(dec, det))
    assert np.array_equal(kernel.decode_rows(det), BatchedUnionFind(dec).decode_rows(det))


@requires_cc
def test_cext_kernel_gives_up_on_isolated_odd_clusters(extra_rounds_graph):
    """An odd cluster with no frontier left hits the scalar "give up" exit."""
    graph = extra_rounds_graph
    # cut detector 0 off the graph entirely: a defect there can never
    # neutralize, and the growth loop must stop once it is the only active
    # cluster left
    keep = (graph.edge_u != 0) & (graph.edge_v != 0)
    cut = MatchingGraph(
        num_detectors=graph.num_detectors,
        num_observables=graph.num_observables,
        edge_u=graph.edge_u[keep],
        edge_v=graph.edge_v[keep],
        edge_prob=graph.edge_prob[keep],
        edge_weight=graph.edge_weight[keep],
        edge_obs=graph.edge_obs[keep],
    )
    dec = UnionFindDecoder(cut)
    kernel = cext.CextUnionFind(dec)
    det = build_dense_syndromes(cut, 200, 0.03, seed=5)
    det[:, 0] = True
    assert np.array_equal(kernel.decode_rows(det), _scalar_masks(dec, det))
    single = np.zeros((1, cut.num_detectors), dtype=bool)
    single[0, 0] = True
    assert kernel.decode_rows(single).tolist() == [0] == _scalar_masks(dec, single).tolist()


@requires_cc
def test_cext_kernel_is_safe_across_threads(parity_grid):
    """Scratch is allocated per call, so concurrent decodes cannot interfere."""
    graph, det = parity_grid[(5, 1e-3)]
    kernel = cext.CextUnionFind(UnionFindDecoder(graph))
    rows = np.unique(det, axis=0)
    expected = kernel.decode_rows(rows)
    results = [None, None]

    def work(slot):
        results[slot] = [kernel.decode_rows(rows) for _ in range(5)]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for masks in results[0] + results[1]:
        assert np.array_equal(masks, expected)


@requires_cc
def test_cext_kernel_handles_empty_and_all_zero_input(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = cext.CextUnionFind(UnionFindDecoder(graph))
    empty = kernel.decode_rows(np.zeros((0, graph.num_detectors), dtype=bool))
    assert empty.shape == (0,) and empty.dtype == np.uint64
    assert not kernel.decode_rows(np.zeros((5, graph.num_detectors), dtype=bool)).any()


# ---------------------------------------------------------------------------
# the packed data plane: C and numpy helpers, packed C decode
# ---------------------------------------------------------------------------

_PACKED_WIDTHS = (63, 64, 65, 128, 129)
_CHAIN_GRAPHS: dict = {}


def _chain_graph(ndet: int):
    """A chain with skip edges over ``ndet`` detectors, both ends on the boundary."""
    if ndet not in _CHAIN_GRAPHS:
        errors = [(0.01, (i, i + 1), ()) for i in range(ndet - 1)]
        errors += [(0.002, (i, i + 2), (1,)) for i in range(0, ndet - 2, 3)]
        errors += [(0.01, (0,), (0,)), (0.01, (ndet - 1,), ())]
        _CHAIN_GRAPHS[ndet] = build_dem_graph(errors, ndet, nobs=2)
    return _CHAIN_GRAPHS[ndet]


@st.composite
def _word_rows(draw):
    """Packed rows over a few distinct patterns, so duplicates abound."""
    width = draw(st.integers(0, 3))
    word = st.sampled_from([0, 1, 1 << 63, 0xFFFF_FFFF_FFFF_FFFF, 12345])
    patterns = draw(st.lists(st.lists(word, min_size=width, max_size=width), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(patterns) - 1), max_size=200))
    return np.array([patterns[i] for i in picks], dtype=np.uint64).reshape(len(picks), width)


#: 1000 distinct rows sharing their first word, twice over: a loaded hash
#: table whose probe chains must compare every word
_SHARED_FIRST_WORD = np.stack(
    [np.full(2000, 7), np.arange(2000) % 1000, np.zeros(2000)], axis=1
).astype(np.uint64)


@requires_cc
@settings(max_examples=80, deadline=None)
@given(words=_word_rows())
@example(words=_SHARED_FIRST_WORD)
def test_plane_dedup_c_and_numpy_give_the_same_partition(words):
    first_c, inverse_c = plane.dedup(words)
    with numpy_plane():
        first_np, inverse_np = plane.dedup(words)
    # both number groups by first occurrence: the same arrays, not just the
    # same partition
    assert np.array_equal(first_c, first_np) and np.array_equal(inverse_c, inverse_np)
    n = words.shape[0]
    assert np.array_equal(words[first_c][inverse_c], words)
    assert first_c.size == (np.unique(words, axis=0).shape[0] if n else 0)
    if n:
        assert first_c.tolist() == sorted(first_c.tolist())
        assert np.array_equal(inverse_c[first_c], np.arange(first_c.size))


@requires_cc
@settings(max_examples=40, deadline=None)
@given(
    ndet=st.sampled_from(_PACKED_WIDTHS),
    density=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_uf_decode_packed_equals_the_scalar_pass(ndet, density, seed):
    graph = _chain_graph(ndet)
    kernel = cext.CextUnionFind(UnionFindDecoder(graph))
    rows = np.random.default_rng(seed).random((40, ndet)) < density
    expected = _scalar_masks(UnionFindDecoder(graph), rows)
    assert np.array_equal(kernel.decode_packed(plane.pack_words(rows)), expected)
    # bool rows reach the same entry point packed
    assert np.array_equal(kernel.decode_rows(rows), expected)
    # and so does the whole dedup engine
    engine = BatchDecodingEngine(UnionFindDecoder(graph), backend="cext")
    assert np.array_equal(engine.decode_words(plane.pack_words(rows)), expected)


@requires_cc
def test_cext_packed_kernel_rejects_bad_shapes(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = cext.CextUnionFind(UnionFindDecoder(graph))
    width = plane.n_words(graph.num_detectors)
    assert kernel.decode_packed(np.zeros((0, width), dtype=np.uint64)).shape == (0,)
    with pytest.raises(ValueError):
        kernel.decode_packed(np.zeros((3, width + 1), dtype=np.uint64))


@requires_cc
def test_installed_library_exports_the_data_plane():
    lib = cext.library()
    for name in ("uf_decode_packed", "plane_xor_darts", "plane_dedup"):
        assert hasattr(lib, name), name


def test_no_compiler_ler_and_sweep_match_the_c_path(tmp_path, monkeypatch):
    """A host without ``cc`` samples, dedups and decodes bit-identically."""
    from repro.experiments.sweeps import PolicySpec, SweepSpec, run_sweep
    from repro.store import ResultStore

    cfg = SurgeryLerConfig(
        distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=1000.0, p=3e-3
    )
    spec = SweepSpec(
        name="no-compiler",
        distances=(2,),
        taus_ns=(500.0,),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        seed=5,
        batch_shots=300,
        min_shots=300,
        max_shots=600,
        p=5e-3,
    )

    def outcomes(store_dir):
        ler = run_surgery_ler(cfg, make_policy("passive"), 3000, rng=3, batch_size=1000)
        report = run_sweep(spec, ResultStore(store_dir))
        return (
            [e.successes for e in ler.estimates],
            ler.decode_stats["distinct_syndromes"],
            {
                o.key: (o.record["failures"], o.record["decode_stats"]["distinct_syndromes"])
                for o in report.outcomes
            },
        )

    with_c = outcomes(tmp_path / "c")
    monkeypatch.setattr(cext, "library", lambda: None)
    monkeypatch.setattr(kernels, "_FALLBACK_WARNED", set())
    assert kernels.resolve("auto").name == "numpy"
    without_c = outcomes(tmp_path / "numpy")
    assert without_c == with_c
    assert with_c[1] > 0 and all(f for f, _ in with_c[2].values())


# ---------------------------------------------------------------------------
# the scalar decoder's reentrancy guard
# ---------------------------------------------------------------------------


def test_unionfind_reentrant_use_raises(parity_grid):
    graph, det = parity_grid[(3, 2e-3)]

    class _Reentrant(UnionFindDecoder):
        def _peel(self, defects, solid):
            # simulate a concurrent/recursive decode on the same instance
            self.decode(np.ones(self.graph.num_detectors, dtype=bool))
            return super()._peel(defects, solid)

    dec = _Reentrant(graph)
    syndrome = det[det.any(axis=1)][0]
    with pytest.raises(RuntimeError, match="not reentrant"):
        dec.decode(syndrome)
    # the guard must reset: a clean decode afterwards works
    assert UnionFindDecoder(graph).decode(syndrome) == _clean_decode(graph, syndrome)
    assert dec.decode(np.zeros(graph.num_detectors, dtype=bool)) == 0


def test_unionfind_instance_is_shared_safely_across_threads(parity_grid):
    # each thread gets its own scratch lists: more threads than cores,
    # switching every microsecond, decoding through one instance (a sweep's
    # cached decoder) all match a serial decode
    import sys

    graph, det = parity_grid[(3, 5e-3)]
    rows = det[det.any(axis=1)][:300]
    dec = UnionFindDecoder(graph)
    serial = [dec.decode(row) for row in rows]
    n_threads = 2 * (os.cpu_count() or 1) + 1
    out = {}

    def work(tag):
        out[tag] = [dec.decode(row) for row in rows]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert out == {t: serial for t in range(n_threads)}


def _clean_decode(graph, syndrome):
    return UnionFindDecoder(graph).decode(syndrome)
