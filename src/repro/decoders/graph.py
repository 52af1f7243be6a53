"""Matching-graph construction from detector error models.

Turns a :class:`~repro.stab.dem.DetectorErrorModel` into the weighted graph
used by matching-style decoders (union-find, MWPM), working on the model's
columnar arrays (``docs/DECODERS.md``, "DEM layout"):

* errors with one detector become *boundary edges* to a virtual boundary node,
* errors with two detectors become ordinary edges,
* errors with more detectors are decomposed into known graphlike edges (the
  analogue of Stim's ``decompose_errors=True``); only this step loops in
  Python, once per composite error.

Rows landing on one ``(u, v, observable mask)`` edge are merged with
:func:`~repro._util.xor_probability` in row order, composite parts after
every 1- and 2-detector row, so the probabilities are bit-exact against the
per-error builder kept in ``tests/graph_oracle.py``.

Also provides :func:`graphlike_distance`, a two-layer Dijkstra that computes
the circuit-level fault distance — the validation tool that catches bad
stabilizer-measurement schedules (hook errors).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .._util import run_starts, xor_runs
from ..stab.dem import DetectorErrorModel

__all__ = ["MatchingGraph", "build_matching_graph", "graphlike_distance"]

#: probability floor to keep weights finite
_P_FLOOR = 1e-12


@dataclass
class MatchingGraph:
    """Weighted decoding graph over detector nodes plus one boundary node."""

    num_detectors: int
    num_observables: int
    edge_u: np.ndarray
    edge_v: np.ndarray  # == num_detectors for boundary edges
    edge_prob: np.ndarray
    edge_weight: np.ndarray  # -log(p / (1-p)), clipped positive
    edge_obs: np.ndarray  # uint64 bitmask over observables
    #: probability mass of errors invisible to this graph but flipping obs
    undetectable_obs_probability: np.ndarray = field(default=None)
    #: number of composite errors that could not be decomposed exactly
    decomposition_fallbacks: int = 0

    # adjacency in CSR form (built lazily)
    _adj_indptr: np.ndarray | None = None
    _adj_edges: np.ndarray | None = None

    @property
    def boundary_node(self) -> int:
        return self.num_detectors

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, edge-id list) of edges incident to each node."""
        if self._adj_indptr is None:
            n = self.num_detectors + 1
            nodes = np.concatenate([self.edge_u, self.edge_v])
            edge_id = np.tile(np.arange(self.num_edges, dtype=np.int64), 2)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(nodes, minlength=n), out=indptr[1:])
            # by node, then ascending edge id (lexsort is stable)
            edges = edge_id[np.lexsort((edge_id, nodes))]
            self._adj_indptr, self._adj_edges = indptr, edges
        return self._adj_indptr, self._adj_edges

    def integer_weights(self, resolution: int = 16) -> np.ndarray:
        """Even integer weights for half-step union-find growth."""
        w = self.edge_weight
        scale = resolution / max(float(np.median(w)), 1e-9)
        iw = np.maximum(2, np.round(w * scale / 2).astype(np.int64) * 2)
        return iw


def build_matching_graph(
    dem: DetectorErrorModel,
    *,
    basis: str | None = None,
) -> MatchingGraph:
    """Build the matching graph, optionally restricting to one CSS basis."""
    model = dem.filtered(basis) if basis is not None else dem
    nobs = model.num_observables
    if nobs > 64:
        raise ValueError("observable bitmask limited to 64 observables")
    boundary = model.num_detectors
    probs = model.probabilities
    ptr, dets = model.det_indptr, model.det_indices
    lens = np.diff(ptr)
    obs_rows = np.repeat(np.arange(probs.size), np.diff(model.obs_indptr))
    masks = np.zeros(probs.size, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), model.obs_indices.astype(np.uint64))
    np.bitwise_or.at(masks, obs_rows, bits)

    # observable flips no detector sees, merged per observable in row order
    hidden = lens[obs_rows] == 0
    order = np.argsort(model.obs_indices[hidden], kind="stable")
    hidden_obs, hidden_probs = model.obs_indices[hidden][order], probs[obs_rows[hidden]][order]
    heads = run_starts(hidden_obs)
    undetectable = np.zeros(nobs, dtype=np.float64)
    undetectable[hidden_obs[heads]] = xor_runs(hidden_probs, heads)

    # 1- and 2-detector rows are edges (u, boundary) and (u, v)
    rows = np.flatnonzero((lens == 1) | (lens == 2))
    a = dets[ptr[rows]]
    b = np.where(lens[rows] == 2, dets[np.minimum(ptr[rows] + 1, dets.size - 1)], boundary)
    eu, ev, eobs, eprob = np.minimum(a, b), np.maximum(a, b), masks[rows], probs[rows]

    fallbacks = 0
    composites = np.flatnonzero(lens > 2)
    if composites.size:
        # the first mask seen on each (dets[0], dets[1] or boundary) pair
        pairs, first = np.unique(np.stack([a, b], axis=1), axis=0, return_index=True)
        primitive = dict(zip(map(tuple, pairs.tolist()), masks[rows][first].tolist()))
        parts_u, parts_v, parts_obs, parts_prob = [], [], [], []
        for row in composites.tolist():
            sig = dets[ptr[row] : ptr[row + 1]].tolist()
            mask, prob = int(masks[row]), float(probs[row])
            parts = _decompose(sig, mask, primitive, boundary)
            if parts is None:
                fallbacks += 1
                parts = _fallback_decomposition(sig, mask, boundary)
            for u, v, m in parts:
                parts_u.append(min(u, v))
                parts_v.append(max(u, v))
                parts_obs.append(m)
                parts_prob.append(prob)
        # composite parts merge after every primitive row, in row order
        eu = np.concatenate([eu, np.array(parts_u, dtype=np.int64)])
        ev = np.concatenate([ev, np.array(parts_v, dtype=np.int64)])
        eobs = np.concatenate([eobs, np.array(parts_obs, dtype=np.uint64)])
        eprob = np.concatenate([eprob, np.array(parts_prob, dtype=np.float64)])

    # by (u, v, mask); the stable sort keeps each key's contributions in order
    order = np.lexsort((eobs, ev, eu))
    eu, ev, eobs, eprob = eu[order], ev[order], eobs[order], eprob[order]
    keys = np.stack([eu, ev, eobs.view(np.int64)], axis=1)
    heads = run_starts(keys)
    eprob = np.clip(xor_runs(eprob, heads), _P_FLOOR, 1 - _P_FLOOR)
    eweight = np.log((1 - eprob) / eprob)
    eweight = np.maximum(eweight, 1e-9)
    return MatchingGraph(
        num_detectors=model.num_detectors,
        num_observables=nobs,
        edge_u=eu[heads],
        edge_v=ev[heads],
        edge_prob=eprob,
        edge_weight=eweight,
        edge_obs=eobs[heads],
        undetectable_obs_probability=undetectable,
        decomposition_fallbacks=fallbacks,
    )


def _decompose(dets, mask, primitive, boundary):
    """Split a composite signature into known primitive edges.

    Tries every partition of the detector set into pairs and singles where
    each pair is an existing edge and each single has an existing boundary
    edge (``primitive`` maps each to the first mask seen on it).  Prefers
    partitions whose masks XOR to the composite's mask; otherwise dumps the
    residual mask on the first part.
    """
    dets = list(dets)
    best = None
    for parts in _partitions(dets):
        keys = []
        ok = True
        total_mask = 0
        for part in parts:
            uv = (part[0], part[1]) if len(part) == 2 else (part[0], boundary)
            first = primitive.get(uv)
            if first is None:
                ok = False
                break
            keys.append((uv[0], uv[1], first))
            total_mask ^= first
        if not ok:
            continue
        if total_mask == mask:
            return keys
        if best is None:
            residual = total_mask ^ mask
            fixed = [(keys[0][0], keys[0][1], keys[0][2] ^ residual)] + keys[1:]
            best = fixed
    return best


def _partitions(dets):
    """All partitions of a small detector set into pairs and singletons."""
    if not dets:
        yield []
        return
    first, rest = dets[0], dets[1:]
    # first as a singleton (boundary edge)
    for tail in _partitions(rest):
        yield [[first]] + tail
    # first paired with each other element
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _partitions(remaining):
            yield [[first, other]] + tail


def _fallback_decomposition(dets, mask, boundary):
    """Last resort: chain consecutive detectors, residual obs on first part."""
    dets = sorted(dets)
    keys = []
    for i in range(0, len(dets) - 1, 2):
        keys.append((dets[i], dets[i + 1], 0))
    if len(dets) % 2 == 1:
        keys.append((dets[-1], boundary, 0))
    keys[0] = (keys[0][0], keys[0][1], mask)
    return keys


def graphlike_distance(graph: MatchingGraph, obs_index: int = 0) -> int:
    """Minimum number of graph edges whose combination flips ``obs_index``
    while producing an empty syndrome (i.e. the circuit fault distance).

    Implemented as BFS/Dijkstra with unit edge costs on a two-layer graph
    (node, observable parity); a logical operator is a boundary-to-boundary
    walk with odd parity, or any odd-parity cycle.
    """
    n = graph.num_detectors + 1
    indptr, eids = graph.adjacency()
    bit = np.uint64(1 << obs_index)
    obs_parity = ((graph.edge_obs & bit) != 0).astype(np.int8)

    best = math.inf
    # boundary-to-boundary odd walk
    dist = _two_layer_dijkstra(graph, indptr, eids, obs_parity, source=graph.boundary_node)
    best = min(best, dist[graph.boundary_node, 1])
    if math.isinf(best):
        # fall back to odd cycles anchored at each odd edge (rare)
        odd_edges = np.flatnonzero(obs_parity)
        for e in odd_edges:
            u, v = int(graph.edge_u[e]), int(graph.edge_v[e])
            dist_u = _two_layer_dijkstra(graph, indptr, eids, obs_parity, source=u, skip_edge=e)
            best = min(best, dist_u[v, 0] + 1)
    return int(best) if not math.isinf(best) else -1


def _two_layer_dijkstra(graph, indptr, eids, obs_parity, source, skip_edge=-1):
    n = graph.num_detectors + 1
    dist = np.full((n, 2), math.inf)
    dist[source, 0] = 0
    heap = [(0, source, 0)]
    while heap:
        d, node, par = heapq.heappop(heap)
        if d > dist[node, par]:
            continue
        for e in eids[indptr[node] : indptr[node + 1]]:
            if e == skip_edge:
                continue
            u, v = int(graph.edge_u[e]), int(graph.edge_v[e])
            other = v if u == node else u
            npar = par ^ int(obs_parity[e])
            nd = d + 1
            if nd < dist[other, npar]:
                dist[other, npar] = nd
                heapq.heappush(heap, (nd, other, npar))
    return dist
