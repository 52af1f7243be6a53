"""Decode-throughput microbenchmark: batch engine vs the seed per-shot loop.

Measures union-find decoding of a d=5, p=1e-3 surface-code memory experiment
(the workhorse configuration of every LER sweep) three ways:

* ``seed_loop`` — a frozen, verbatim copy of the seed revision's per-shot
  ``decode_batch`` (numpy-indexed hot path, python bit expansion).  Kept
  here as a fixed yardstick so future PRs track the perf trajectory against
  a stable reference rather than against last week's code.
* ``per_shot`` — the current decoder driven one shot at a time
  (``dedup=False``), isolating the hot-path speedups from the batching win.
* ``dedup_engine`` — the :class:`~repro.decoders.batch.BatchDecodingEngine`
  with syndrome dedup, as used by ``run_surgery_ler``.

Writes ``benchmarks/results/decode_throughput.json`` with shots/sec for each
mode, the dedup hit rate, and the speedups, over :data:`SHOTS` shots (the
per-shot baselines are timed on the first :data:`BASELINE_SHOTS`, because
their *rate* is shot-count independent, while dedup throughput
legitimately grows with batch size).

``test_decode_backend_throughput`` additionally races the scalar pass
(``python``, timed with the C library patched away) against the host's C
union-find (``cext``, when it builds) on the kernel subsystem's acceptance
configuration — d=7 at p=3e-3, where syndromes are heavy and dedup alone
buys little — plus d=5, 9 and 11 at a tenth of the shots, asserting
bit-identical predictions and, when the C kernel builds, a >= 2x ``cext``
speedup.  Rows are keyed by the path that actually ran; a host without
the C library records only ``python``.
``test_wrapped_backend_throughput`` (marked ``slow``; needs a C compiler)
races the *wrapped* paths on the same configuration: the predecoded and
hierarchical decoders under their scalar fallback vs the ``cext``
path's batched kernels (``BatchedPredecode`` / ``BatchedHierarchical``
over the C union-find), asserting bit-identical predictions +
``PredecodeStats`` and a >= 2x predecoded-path speedup.  Both write per-decoder sections of
``benchmarks/results/decode_backends.json``, over :data:`BACKEND_SHOTS`
shots.
"""

import time
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.codes import memory_experiment
from repro.decoders import (
    BatchDecodingEngine,
    HierarchicalDecoder,
    PredecodedDecoder,
    UnionFindDecoder,
    build_matching_graph,
    kernels,
)
from repro.decoders.kernels import cext
from repro.figures.bench import record, record_merge, run_once
from repro.noise import GOOGLE, NoiseModel
from repro.stab import DemSampler, circuit_to_dem

SEED = 2025
#: shots of the decode-throughput benchmark
SHOTS = 100_000
#: shots the per-shot baselines are timed on (a prefix of SHOTS)
BASELINE_SHOTS = 20_000
#: shots of the backend-throughput benchmarks
BACKEND_SHOTS = 50_000


def _decode_path(name: str):
    """Context that runs ``name``: ``python`` patches the C library away."""
    return mock.patch.object(cext, "library", lambda: None) if name == "python" else nullcontext()


# ---------------------------------------------------------------------------
# frozen seed baseline (verbatim from the seed revision's UnionFindDecoder)
# ---------------------------------------------------------------------------


class _SeedUnionFindDecoder:
    """The seed revision's decoder, frozen as the benchmark yardstick."""

    def __init__(self, graph, *, weight_resolution: int = 16):
        self.graph = graph
        self._indptr, self._eids = graph.adjacency()
        self._weights = graph.integer_weights(weight_resolution)
        self._eu = graph.edge_u
        self._ev = graph.edge_v
        self._eobs = graph.edge_obs
        self._boundary = graph.boundary_node

    def decode_batch(self, detectors):
        shots = detectors.shape[0]
        nobs = self.graph.num_observables
        out = np.zeros((shots, nobs), dtype=bool)
        rows, cols = np.nonzero(detectors)
        if rows.size == 0:
            return out
        starts = np.searchsorted(rows, np.arange(shots + 1))
        for s in range(shots):
            lo, hi = starts[s], starts[s + 1]
            if lo == hi:
                continue
            mask = self._decode_defects(cols[lo:hi].tolist())
            for o in range(nobs):
                if mask >> o & 1:
                    out[s, o] = True
        return out

    def _decode_defects(self, defects):
        parent, rank, parity = {}, {}, {}
        touches_boundary, members, growth = {}, {}, {}
        solid = set()

        def find(a):
            root = a
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(a, a) != a:
                parent[a], a = root, parent[a]
            return root

        def add_node(a):
            if a not in parent:
                parent[a] = a
                rank[a] = 0
                parity[a] = 0
                touches_boundary[a] = a == self._boundary
                members[a] = [a]
            return find(a)

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra == rb:
                return ra
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            if rank[ra] == rank[rb]:
                rank[ra] += 1
            parity[ra] ^= parity[rb]
            touches_boundary[ra] = touches_boundary[ra] or touches_boundary[rb]
            members[ra].extend(members[rb])
            return ra

        for d in defects:
            r = add_node(d)
            parity[r] ^= 1

        indptr, eids = self._indptr, self._eids
        eu, ev, weights = self._eu, self._ev, self._weights

        max_rounds = 4 * (self.graph.num_edges + 2)
        for _ in range(max_rounds):
            active_roots = {
                find(d)
                for d in defects
                if parity[find(d)] == 1 and not touches_boundary[find(d)]
            }
            if not active_roots:
                break
            frontier = {}
            for root in active_roots:
                seen = set()
                for node in members[root]:
                    for e in eids[indptr[node] : indptr[node + 1]]:
                        e = int(e)
                        if e not in solid and e not in seen:
                            seen.add(e)
                            frontier[e] = frontier.get(e, 0) + 1
            if not frontier:
                break
            step = min(
                -((growth.get(e, 0) - int(weights[e])) // c) for e, c in frontier.items()
            )
            completed = []
            for e, c in frontier.items():
                g = growth.get(e, 0) + c * step
                growth[e] = g
                if g >= weights[e]:
                    completed.append(e)
            for e in completed:
                if e in solid:
                    continue
                solid.add(e)
                a, b = int(eu[e]), int(ev[e])
                add_node(a)
                add_node(b)
                union(a, b)

        return self._peel(defects, solid)

    def _peel(self, defects, solid):
        if not solid:
            return 0
        eu, ev, eobs = self._eu, self._ev, self._eobs
        adj = {}
        for e in solid:
            a, b = int(eu[e]), int(ev[e])
            adj.setdefault(a, []).append(e)
            adj.setdefault(b, []).append(e)
        visited = set()
        order = []
        nodes = sorted(adj, key=lambda n: 0 if n == self._boundary else 1)
        for start in nodes:
            if start in visited:
                continue
            visited.add(start)
            stack = [start]
            while stack:
                node = stack.pop()
                for e in adj[node]:
                    other = int(ev[e]) if int(eu[e]) == node else int(eu[e])
                    if other in visited:
                        continue
                    visited.add(other)
                    order.append((other, node, e))
                    stack.append(other)
        defect_set = {}
        for d in defects:
            defect_set[d] = defect_set.get(d, 0) ^ 1
        mask = 0
        for node, parent_node, e in reversed(order):
            if defect_set.get(node, 0):
                mask ^= int(eobs[e])
                defect_set[node] = 0
                if parent_node != self._boundary:
                    defect_set[parent_node] = defect_set.get(parent_node, 0) ^ 1
        return mask


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------


def _best_rate(fn, shots: int, repeats: int):
    """Best-of-N shots/sec (min wall time), plus the last run's result."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return shots / best, out


def _bench_decode_throughput(shots: int, baseline_shots: int, seed: int) -> dict:
    noise = NoiseModel(hardware=GOOGLE, p=1e-3, idle_scale=0.0)
    art = memory_experiment(5, 5, noise)
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    det, _ = DemSampler(dem).sample(shots, rng=seed)
    sub = det[:baseline_shots]

    seed_dec = _SeedUnionFindDecoder(graph)
    seed_rate, seed_pred = _best_rate(
        lambda: seed_dec.decode_batch(sub), sub.shape[0], repeats=2
    )

    current = UnionFindDecoder(graph)
    loop_rate, loop_pred = _best_rate(
        lambda: current.decode_batch(sub, dedup=False), sub.shape[0], repeats=2
    )

    decoder = UnionFindDecoder(graph)
    state = {}

    def _run_engine():
        # fresh engine per repeat: each run decodes one full cold batch
        eng = BatchDecodingEngine(decoder, dedup=True)
        state["engine"] = eng
        return eng.decode_batch(det)

    engine_rate, engine_pred = _best_rate(_run_engine, det.shape[0], repeats=3)
    engine = state["engine"]

    assert np.array_equal(engine_pred[:baseline_shots], seed_pred), (
        "dedup engine must reproduce the seed loop's predictions bit-for-bit"
    )
    assert np.array_equal(engine_pred[:baseline_shots], loop_pred)

    stats = engine.stats
    return {
        "config": {"decoder": "unionfind", "distance": 5, "p": 1e-3, "shots": shots},
        "seed_loop_shots_per_sec": seed_rate,
        "per_shot_shots_per_sec": loop_rate,
        "dedup_shots_per_sec": engine_rate,
        "speedup_vs_seed_loop": engine_rate / seed_rate,
        "speedup_vs_per_shot_loop": engine_rate / loop_rate,
        "distinct_syndromes": stats.distinct_syndromes,
        "decode_calls": stats.decode_calls,
        "dedup_hit_rate": stats.dedup_hit_rate,
    }


def test_decode_throughput(benchmark):
    row = run_once(benchmark, _bench_decode_throughput, SHOTS, BASELINE_SHOTS, SEED)
    print(
        f"\nseed loop {row['seed_loop_shots_per_sec']:,.0f}/s   "
        f"per-shot {row['per_shot_shots_per_sec']:,.0f}/s   "
        f"dedup {row['dedup_shots_per_sec']:,.0f}/s   "
        f"({row['speedup_vs_seed_loop']:.2f}x vs seed, "
        f"hit rate {row['dedup_hit_rate']:.3f})"
    )
    record("decode_throughput", row)

    assert row["dedup_hit_rate"] > 0.5
    # the acceptance bar: >= 5x over the seed per-shot loop at 100k shots
    assert row["speedup_vs_seed_loop"] >= 5.0
    assert row["speedup_vs_per_shot_loop"] > 1.5


# ---------------------------------------------------------------------------
# decode paths: scalar pass vs the C union-find kernel
# ---------------------------------------------------------------------------


def _surface_case(distance: int, shots: int, seed: int):
    """A d-round memory experiment at p=3e-3 (d=7: the acceptance config).

    At d=7 the mean syndrome weight is ~7.5 with >90% of rows distinct —
    the regime where per-syndrome dispatch dominates and dedup cannot help,
    so a faster whole-matrix kernel is the only lever left.
    """
    noise = NoiseModel(hardware=GOOGLE, p=3e-3, idle_scale=0.0)
    art = memory_experiment(distance, distance, noise)
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    det, _ = DemSampler(dem).sample(shots, rng=seed)
    return graph, det


#: distances of the per-d backend throughput table (docs/DECODERS.md)
BACKEND_DISTANCES = (5, 7, 9, 11)


def _bench_backend_point(distance: int, shots: int, seed: int, backends) -> dict:
    """Union-find shots/s of every backend at one distance, parity-checked."""
    graph, det = _surface_case(distance, shots, seed)
    rates, predictions, stats = {}, {}, {}
    for backend in backends:
        decoder = UnionFindDecoder(graph)
        state = {}

        def _run(decoder=decoder):
            engine = BatchDecodingEngine(decoder, dedup=True)
            state["engine"] = engine
            return engine.decode_batch(det)

        with _decode_path(backend):
            if backend != "python":
                _run()  # warm the bound kernel before timing
            rates[backend], predictions[backend] = _best_rate(
                _run, det.shape[0], repeats=2 if backend == "python" else 3
            )
        stats[backend] = state["engine"].stats

    for backend in backends:
        assert np.array_equal(predictions[backend], predictions["python"]), (
            f"the {backend} path must be bit-identical to the python path "
            f"(d={distance})"
        )
        assert stats[backend].decode_calls == stats["python"].decode_calls
    row = {"distance": distance, "shots": shots,
           "distinct_syndromes": stats["python"].distinct_syndromes}
    for backend in backends:
        row[f"{backend}_shots_per_sec"] = rates[backend]
        if backend != "python":
            row[f"{backend}_speedup_vs_python"] = rates[backend] / rates["python"]
    return row


def _bench_decode_backends(shots: int, seed: int) -> dict:
    # key every row by the path that actually runs: the scalar pass always,
    # and the host's C path when its library loads
    backends = ["python"] if kernels.backend() == "python" else ["python", "cext"]
    by_distance = {}
    for distance in BACKEND_DISTANCES:
        n = shots if distance == 7 else max(1000, shots // 10)
        by_distance[str(distance)] = _bench_backend_point(distance, n, seed, backends)
    d7 = dict(by_distance["7"])
    del d7["distance"], d7["shots"]
    return {
        "config": {"decoder": "unionfind", "distance": 7, "p": 3e-3, "shots": shots},
        "backends_available": backends,
        **d7,
        "by_distance": by_distance,
    }


def test_decode_backend_throughput(benchmark):
    row = run_once(benchmark, _bench_decode_backends, BACKEND_SHOTS, SEED)
    for d, point in row["by_distance"].items():
        rates = "   ".join(
            f"{b} {point[f'{b}_shots_per_sec']:,.0f}/s" for b in row["backends_available"]
        )
        print(f"\nd={d}: {rates}   ({point['distinct_syndromes']} distinct rows)")
    record_merge("decode_backends", {"unionfind": row})

    # regression floor, not the acceptance bar: the C kernel measures
    # ~30-38x here, so 2.0 only fails if the whole-matrix kernel stops
    # engaging (that reads ~1x); the recorded ratio is the tracked number.
    # A host without a compiler runs only the python reference.
    if "cext" in row["backends_available"]:
        assert row["cext_speedup_vs_python"] >= 2.0


# ---------------------------------------------------------------------------
# wrapped paths: predecoded / hierarchical scalar fallback vs batched kernels
# ---------------------------------------------------------------------------


def _bench_wrapped_backends(shots: int, seed: int) -> dict:
    graph, det = _surface_case(7, shots, seed)

    def _make(name):
        if name == "predecoded":
            return PredecodedDecoder(graph, UnionFindDecoder(graph))
        return HierarchicalDecoder(
            graph, lut_size_bytes=1 << 16, slow_decoder=UnionFindDecoder(graph)
        )

    sections = {}
    for name in ("predecoded", "hierarchical"):
        rates, predictions, engines = {}, {}, {}
        repeats = {"python": 2, "cext": 3}
        for backend in ("python", "cext"):
            # decoder built once per backend, outside the timed region:
            # construction (LUT enumeration) and kernel binding are one-time
            # costs a streaming pipeline amortizes away, and timing them
            # would dilute the backend contrast
            decoder = _make(name)

            def _run(decoder=decoder, backend=backend):
                # predecode statistics accumulate on the engine, so the last
                # repeat's engine describes exactly one cold batch
                engine = BatchDecodingEngine(decoder, dedup=True)
                engines[backend] = engine
                return engine.decode_batch(det)

            with _decode_path(backend):
                _run()  # warm the bound kernels (jit, BatchedMWPM Dijkstra rows)
                rates[backend], predictions[backend] = _best_rate(
                    _run, det.shape[0], repeats=repeats[backend]
                )

        assert np.array_equal(predictions["python"], predictions["cext"]), (
            f"the cext path must be bit-identical to python for {name}"
        )
        if name == "predecoded":
            assert vars(engines["python"].decoder_stats) == vars(
                engines["cext"].decoder_stats
            )
        sections[name] = {
            "config": {"decoder": name, "distance": 7, "p": 3e-3, "shots": shots},
            "python_shots_per_sec": rates["python"],
            "cext_shots_per_sec": rates["cext"],
            "cext_speedup_vs_python": rates["cext"] / rates["python"],
        }
        if name == "predecoded":
            stats = engines["cext"].decoder_stats
            sections[name]["predecode_removal_fraction"] = stats.removal_fraction
            sections[name]["predecode_offload_fraction"] = stats.offload_fraction
    return sections


@pytest.mark.slow
def test_wrapped_backend_throughput(benchmark):
    if kernels.backend() != "cext":
        pytest.skip("no C compiler: only the python reference path runs")
    sections = run_once(benchmark, _bench_wrapped_backends, BACKEND_SHOTS, SEED)
    for name, row in sections.items():
        print(
            f"\n{name}: python {row['python_shots_per_sec']:,.0f}/s   "
            f"cext {row['cext_shots_per_sec']:,.0f}/s   "
            f"({row['cext_speedup_vs_python']:.2f}x)"
        )
    record_merge("decode_backends", sections)

    # the acceptance bar: the batched predecoded path must beat its scalar
    # fallback >= 2x at d=7, p=3e-3 (the margin absorbs this machine's
    # run-to-run timing variance)
    assert sections["predecoded"]["cext_speedup_vs_python"] >= 2.0
    assert sections["hierarchical"]["cext_speedup_vs_python"] >= 1.5
