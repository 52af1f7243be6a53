"""Decode-kernel tests: binding, degradation, and the parity matrix.

The kernel contract is *bit-identity*: the host's decode path (the C
kernels wherever ``cc`` builds them) must produce exactly the predictions —
and exactly the dedup-engine statistics — of the scalar reference pass, run
with the C library patched away (``factories.numpy_plane()``), for every
decoder, across the full ``(d, p)`` grid.  The C
union-find kernel is additionally fuzzed against the scalar decoder on
random syndrome matrices (where cluster growth and peeling interact far
more than at physical error rates), over a d=3 parity-grid graph and the
benchmark's d=3 Extra Rounds graph.  *Degradation* (no C compiler, a
failing build) is tested by monkeypatching the compiler lookup away.
"""

import os
import shutil
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factories import DECODE_PATHS, build_dem_graph, build_dense_syndromes, numpy_plane
from repro.decoders import (
    BatchDecodingEngine,
    MWPMDecoder,
    UnionFindDecoder,
    kernels,
)
from repro.decoders.kernels import BatchedMWPM, cext, plane
from repro.core.policies import make_policy
from repro.decoders.graph import MatchingGraph
from repro.experiments.ler import SurgeryLerConfig, prepared_pipeline, run_surgery_ler
from repro.noise import GOOGLE

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


@pytest.fixture
def no_compiler(monkeypatch):
    """A host without ``cc``: the cached C build is dropped for the test."""
    monkeypatch.setattr(shutil, "which", lambda cmd, *args, **kwargs: None)
    cext.library.cache_clear()
    yield
    cext.library.cache_clear()


# ---------------------------------------------------------------------------
# the host's decode path and binding
# ---------------------------------------------------------------------------


def test_cext_builds_whenever_a_compiler_is_present():
    """A silently failed build would turn the parity matrix into python-vs-python."""
    assert (cext.library() is not None) == (shutil.which("cc") is not None)
    if shutil.which("cc") is not None:
        assert kernels.backend() == "cext"


def test_resolve_explicit_and_auto():
    # resolve("auto") survives only for the repo benchmark's provenance line:
    # it names the path the host runs, whatever name is asked for
    assert kernels.resolve("auto").name == kernels.backend()
    assert kernels.resolve("python").name == kernels.backend()
    with numpy_plane():
        assert kernels.resolve("auto").name == kernels.backend() == "python"


def test_decode_stats_name_the_path_that_ran():
    cfg = SurgeryLerConfig(distance=2, hardware=GOOGLE, policy_name="passive", tau_ns=500.0)
    policy = make_policy("passive")
    if shutil.which("cc") is not None:
        assert run_surgery_ler(cfg, policy, 200, rng=1).decode_stats["backend"] == "cext"
    with numpy_plane():
        stats = run_surgery_ler(cfg, policy, 200, rng=1).decode_stats
    assert stats["backend"] == "python"
    assert "backend_capabilities" not in stats


def test_python_backend_binds_nothing(parity_grid):
    """Without a C library every decoder keeps its scalar pass."""
    graph, _ = parity_grid[(3, 2e-3)]
    with numpy_plane():
        assert kernels.bind(UnionFindDecoder(graph)) is None
        assert kernels.bind(MWPMDecoder(graph)) is None


@requires_cc
def test_numpy_backend_binds_every_stock_decoder_family(parity_grid):
    """MWPM gets the numpy-vectorized kernel of ``batched_wrappers``."""
    graph, _ = parity_grid[(3, 2e-3)]
    mwpm = MWPMDecoder(graph)
    kernel = kernels.bind(mwpm)
    assert isinstance(kernel, BatchedMWPM)
    assert kernels.bind(mwpm) is kernel  # cached per decoder instance
    # a cached kernel is not served once the C library is gone
    with numpy_plane():
        assert kernels.bind(mwpm) is None


@requires_cc
def test_cext_backend_swaps_only_the_unionfind_kernel(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    dec = UnionFindDecoder(graph)
    kernel = kernels.bind(dec)
    assert isinstance(kernel, cext.CextUnionFind)
    assert kernels.bind(dec) is kernel  # cached per decoder instance
    # MWPM keeps its numpy kernel; overridden paths stay scalar
    assert isinstance(kernels.bind(MWPMDecoder(graph)), BatchedMWPM)

    class _CountingUF(UnionFindDecoder):
        def decode(self, detectors):
            return super().decode(detectors)

    assert kernels.bind(_CountingUF(graph)) is None


@requires_cc
def test_cext_backend_skips_overridden_decode_paths(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]

    class _CountingUF(UnionFindDecoder):
        def decode(self, detectors):
            return super().decode(detectors)

    class _CountingMWPM(MWPMDecoder):
        def _decode_defects(self, defects):
            return super()._decode_defects(defects)

    assert kernels.bind(_CountingUF(graph)) is None
    assert kernels.bind(_CountingMWPM(graph)) is None


# ---------------------------------------------------------------------------
# degradation: no compiler, failing builds
# ---------------------------------------------------------------------------


def test_missing_compiler_reports_honestly_and_degrades(parity_grid, no_compiler):
    graph, _ = parity_grid[(3, 2e-3)]
    assert cext.library() is None
    assert kernels.backend() == "python"
    assert kernels.resolve("auto").name == "python"
    assert kernels.bind(UnionFindDecoder(graph)) is None


def test_failing_compile_degrades_instead_of_raising(tmp_path, monkeypatch):
    broken = tmp_path / "uf.c"
    broken.write_text("this is not C\n")
    cache = tmp_path / "cache"
    assert cext.build(broken, cache=cache) is None
    # the failed compile leaves nothing behind for a later load to trip on;
    # with no compiler, build() returns before it creates the cache dir
    if shutil.which("cc") is not None or cache.exists():
        assert list(cache.iterdir()) == []

    monkeypatch.setattr(cext, "SOURCE", broken)
    monkeypatch.setattr(cext, "cache_dir", lambda: cache)
    cext.library.cache_clear()
    try:
        assert cext.library() is None
        assert kernels.backend() == "python"
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


def test_degraded_backend_still_decodes_identically(parity_grid, no_compiler):
    graph, det = parity_grid[(3, 2e-3)]
    degraded = BatchDecodingEngine(UnionFindDecoder(graph)).decode_words(plane.pack_words(det))
    assert np.array_equal(degraded, _scalar_masks(UnionFindDecoder(graph), det))


# ---------------------------------------------------------------------------
# the parity matrix: decode path x decoder x (d, p)
# ---------------------------------------------------------------------------


def _build(factory, graph):
    return UnionFindDecoder(graph) if factory == "unionfind" else MWPMDecoder(graph)


def _stat_counters(engine):
    counters = vars(engine.stats).copy()
    counters.pop("decode_seconds")  # wall time: the only non-deterministic stat
    return counters


@pytest.mark.parametrize("point", [(3, 2e-3), (3, 5e-3), (5, 1e-3)])
@pytest.mark.parametrize("factory", ["unionfind", "mwpm"])
def test_backend_parity_matrix(parity_grid, point, factory):
    graph, det = parity_grid[point]
    if factory != "unionfind":
        det = det[:400]  # slow decoders decode a thinner slice of each point
    reference = ref_counters = None
    for name, path in DECODE_PATHS:
        with path():
            engine = BatchDecodingEngine(_build(factory, graph))
            predictions = engine.decode_batch(det)
        counters = _stat_counters(engine)
        if reference is None:  # the scalar reference pass comes first
            reference, ref_counters = predictions, counters
        else:
            assert np.array_equal(predictions, reference), (
                f"the {name} path diverged from python for {factory} at {point}"
            )
            assert counters == ref_counters, (
                f"the {name} path's stats diverged from python for {factory} at {point}"
            )


@pytest.mark.parametrize("factory", ["unionfind", "mwpm"])
def test_backend_parity_over_overlapping_batches(parity_grid, factory):
    """Overlapping batches through one engine: same masks and counters on each path."""
    graph, det = parity_grid[(3, 5e-3)]
    batches = [det[:300], det[150:450], det[:300]]
    engines = {name: BatchDecodingEngine(_build(factory, graph)) for name, _ in DECODE_PATHS}
    for batch in batches:
        out = {}
        for name, path in DECODE_PATHS:
            with path():
                out[name] = engines[name].decode_batch(batch)
        assert np.array_equal(out["host"], out["python"])
    reference = _stat_counters(engines["python"])
    assert _stat_counters(engines["host"]) == reference
    # no memo across batches: the repeated batch is decoded again
    assert reference["decode_calls"] == reference["distinct_syndromes"]


# ---------------------------------------------------------------------------
# the wrapper kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_kernel",
    [
        # ids kept from the earlier four-kernel list, so each case keeps its name
        pytest.param(lambda g: BatchedMWPM(MWPMDecoder(g)), id="<lambda>0"),
        pytest.param(
            lambda g: cext.CextUnionFind(UnionFindDecoder(g)),
            marks=requires_cc,
            id="<lambda>3",
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
# the C union-find kernel
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
def test_kernel_fuzz_on_random_syndromes(parity_grid):
    """Random dense syndromes: growth collisions, give-ups, big clusters."""
    graph, _ = parity_grid[(3, 2e-3)]
    dec = UnionFindDecoder(graph)
    kernel = cext.CextUnionFind(dec)
    for density in (0.01, 0.05, 0.2, 0.5):
        det = build_dense_syndromes(graph, 300, density, seed=int(density * 1000) + 99)
        assert np.array_equal(kernel.decode_rows(det), _scalar_masks(dec, det)), density


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


@pytest.fixture(scope="module")
def ibm_active_graph():
    """The cold-point workload's IBM d=7 Active graph (tau = 1000 ns)."""
    from repro.noise import IBM

    cfg = SurgeryLerConfig(
        distance=7, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3
    )
    return prepared_pipeline(cfg, make_policy("active")).graph


def _decode_with_threads(kernel, words, n_threads):
    """``uf_decode_packed`` called through the loaded library with ``n_threads``."""
    out = np.zeros(words.shape[0], dtype=np.uint64)
    status = cext.library().uf_decode_packed(
        words.shape[0], words.ctypes.data, words.shape[1],
        kernel.graph.num_detectors + 1, kernel._w.size,
        kernel._indptr.ctypes.data, kernel._eids.ctypes.data,
        kernel._eu.ctypes.data, kernel._ev.ctypes.data, kernel._w.ctypes.data,
        kernel._eobs.ctypes.data, kernel.graph.boundary_node, kernel._max_rounds,
        n_threads, out.ctypes.data,
    )
    assert status == 0
    return out


@requires_cc
@pytest.mark.parametrize("graph_name", ["extra_rounds_graph", "ibm_active_graph"])
def test_cext_masks_do_not_depend_on_the_thread_count(graph_name, request):
    """Rows shared out across threads decode exactly as one thread does."""
    graph = request.getfixturevalue(graph_name)
    kernel = cext.CextUnionFind(UnionFindDecoder(graph))
    det = build_dense_syndromes(graph, 2000, 0.01, seed=17)
    det[::3] = build_dense_syndromes(graph, det[::3].shape[0], 0.05, seed=18)
    sampled = plane.pack_words(det)
    # rows sorted by defect count: chunks taken early are cheap, late ones costly
    by_defects = sampled[np.argsort(det.sum(axis=1), kind="stable")]
    chunk = cext.CHUNK_ROWS
    row_counts = (0, 1, 255, 256, 2000, chunk - 1, chunk, chunk + 1, 2 * chunk * 8 + 1)
    for words in (sampled, by_defects):
        for rows in row_counts:
            part = np.ascontiguousarray(words[:rows])
            expected = _decode_with_threads(kernel, part, 1)
            if rows:
                assert np.array_equal(expected, kernel.decode_packed(part))
            for n_threads in (2, 3, 8, rows + 5):
                masks = _decode_with_threads(kernel, part, n_threads)
                assert masks.tolist() == expected.tolist(), (rows, n_threads)


@requires_cc
def test_cext_resets_grown_edges_between_rows(ibm_active_graph, monkeypatch):
    """One call over ~2,000 rows decodes each row as a call of its own does.

    A single defect's cluster stays odd until it reaches the boundary node
    (223 edges on this graph); two defects joined by an edge lighter than
    every other edge at either end merge first and never reach it.  The rows
    alternate between the two kinds on one thread's scratch, so an edge a row
    grew and the kernel failed to reset would change the next row's mask.
    """
    graph = ibm_active_graph
    dec = UnionFindDecoder(graph)
    kernel = cext.CextUnionFind(dec)
    eu, ev, w, boundary = graph.edge_u, graph.edge_v, dec._weights, graph.boundary_node
    indptr, eids = graph.adjacency()
    lightest = np.array([w[eids[indptr[n]:indptr[n + 1]]].min() for n in range(boundary)])
    pairs = [
        sorted((int(eu[e]), int(ev[e])))
        for e in range(graph.num_edges)
        if boundary not in (eu[e], ev[e])
        and eu[e] != ev[e]
        and w[e] <= min(lightest[eu[e]], lightest[ev[e]])
    ][:1000]
    singles = [[i % graph.num_detectors] for i in range(len(pairs))]
    assert len(pairs) == 1000

    # the scalar reference's solid edges confirm which rows reach the boundary
    reached = []
    peel = dec._peel

    def spy(defects, solid):
        reached.append(any(boundary in (eu[e], ev[e]) for e in solid))
        return peel(defects, solid)

    monkeypatch.setattr(dec, "_peel", spy)
    for defects in singles + pairs:
        dec._decode_defects(defects)
    assert reached == [True] * len(singles) + [False] * len(pairs)

    det = np.zeros((2 * len(pairs), graph.num_detectors), dtype=bool)
    for i, defects in enumerate(d for pair in zip(singles, pairs) for d in pair):
        det[i, defects] = True
    words = plane.pack_words(det)
    alone = [kernel.decode_packed(words[i : i + 1])[0] for i in range(words.shape[0])]
    assert _decode_with_threads(kernel, words, 1).tolist() == alone
    assert kernel.decode_packed(words).tolist() == alone


def test_decode_threads_follow_the_row_count_and_cpus(monkeypatch):
    monkeypatch.setattr(cext, "usable_cpus", lambda: 4)
    assert [cext.decode_threads(n) for n in (0, 255, 256, 511, 512, 1024, 10**6)] == [
        1, 1, 1, 1, 2, 4, 4,
    ]
    monkeypatch.setattr(cext, "usable_cpus", lambda: 1)
    assert cext.decode_threads(10**6) == 1
    monkeypatch.setattr(cext, "usable_cpus", lambda: 1000)
    assert cext.decode_threads(10**6) == cext.MAX_THREADS
    assert f"#define UF_MAX_THREADS {cext.MAX_THREADS}" in cext.SOURCE.read_text()
    assert f"#define UF_CHUNK_ROWS {cext.CHUNK_ROWS}" in cext.SOURCE.read_text()


@requires_cc
def test_sweep_records_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    """One and four usable CPUs store the same records under the same keys."""
    from repro.experiments.sweeps import PolicySpec, SweepSpec, run_sweep
    from repro.store import ResultStore

    spec = SweepSpec(
        name="cpu-count",
        distances=(3,),
        taus_ns=(1000.0,),
        policies=(PolicySpec("passive"), PolicySpec("active")),
        hardware=GOOGLE,
        seed=9,
        batch_shots=3000,
        min_shots=6000,
        max_shots=6000,
        p=6e-3,
    )
    used = []
    decode_threads = cext.decode_threads

    def spy(rows):
        used.append(decode_threads(rows))
        return used[-1]

    monkeypatch.setattr(cext, "decode_threads", spy)

    def records(cpus):
        monkeypatch.setattr(cext, "usable_cpus", lambda: cpus)
        report = run_sweep(spec, ResultStore(tmp_path / str(cpus)))
        out = {}
        for o in report.outcomes:
            rec = {k: v for k, v in o.record.items() if k != "updated_at"}
            stats = dict(rec.pop("decode_stats"))
            assert not any("thread" in k for k in stats)
            del stats["decode_seconds"]
            out[o.key] = (rec, stats)
        return out

    one = records(1)
    assert set(used) == {1}
    used.clear()
    four = records(4)
    assert max(used) > 1
    assert four == one


def test_kernel_handles_empty_and_all_zero_input(parity_grid):
    """The numpy MWPM kernel returns one zero mask per row, and none for no rows."""
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = BatchedMWPM(MWPMDecoder(graph))
    empty = kernel.decode_rows(np.zeros((0, graph.num_detectors), dtype=bool))
    assert empty.shape == (0,)
    zeros = kernel.decode_rows(np.zeros((5, graph.num_detectors), dtype=bool))
    assert zeros.shape == (5,) and not zeros.any()


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
    engine = BatchDecodingEngine(UnionFindDecoder(graph))
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
    for name in ("uf_decode_packed", "plane_xor_darts", "plane_dedup", "dem_walk", "dem_free"):
        assert hasattr(lib, name), name


def test_build_forbids_fused_multiply_adds():
    """The DEM walk's probabilities are bit-exact only without FMA contraction
    (GCC contracts by default on aarch64): the flag is pinned in the build
    and in the source's documented build line."""
    assert "-ffp-contract=off" in cext.CFLAGS
    assert f"cc {' '.join(cext.CFLAGS)} -o uf.so uf.c" in cext.SOURCE.read_text()


@requires_cc
def test_c_bound_decoder_never_builds_the_scalar_lists():
    """The scalar pass's graph lists are built by its first decode, never by the C path."""
    cfg = SurgeryLerConfig(distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=500.0)
    policy = make_policy("passive")
    run_surgery_ler(cfg, policy, 2000, rng=4)
    decoder = prepared_pipeline(cfg, policy).decoder("unionfind")
    assert kernels.bind(decoder) is not None
    assert decoder._adj is None
    # the scalar pass builds them on demand and decodes like the kernel
    det = build_dense_syndromes(decoder.graph, 50, 0.05, seed=3)
    assert np.array_equal(_scalar_masks(decoder, det), kernels.bind(decoder).decode_rows(det))
    assert decoder._adj is not None


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
    # cached decoder) all match a serial decode.  The instance is fresh, so
    # the threads' first decodes also build its graph lists at once
    import sys

    graph, det = parity_grid[(3, 5e-3)]
    rows = det[det.any(axis=1)][:300]
    reference = UnionFindDecoder(graph)
    serial = [reference.decode(row) for row in rows]
    dec = UnionFindDecoder(graph)
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
