"""Exact minimum-weight perfect matching decoder.

Used as the accuracy reference for the union-find decoder.  Shortest
paths between defects are taken on the matching graph (Dijkstra, scipy);
the defect-level matching problem is solved exactly with networkx's blossom
implementation using the standard virtual-boundary construction (one
boundary twin per defect, zero-weight edges between twins).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .batch import Decoder
from .graph import MatchingGraph

__all__ = ["MWPMDecoder"]


class MWPMDecoder(Decoder):
    """Exact matching decoder over a :class:`MatchingGraph`."""

    def __init__(self, graph: MatchingGraph):
        self.graph = graph
        n = graph.num_detectors + 1
        # smallest-weight parallel edge wins for path-finding
        weights = {}
        obs = {}
        for e in range(graph.num_edges):
            u, v = int(graph.edge_u[e]), int(graph.edge_v[e])
            w = float(graph.edge_weight[e])
            if (u, v) not in weights or w < weights[(u, v)]:
                weights[(u, v)] = w
                obs[(u, v)] = int(graph.edge_obs[e])
        rows = np.array([k[0] for k in weights], dtype=np.int64)
        cols = np.array([k[1] for k in weights], dtype=np.int64)
        vals = np.array(list(weights.values()), dtype=np.float64)
        self._matrix = sp.csr_matrix(
            (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(n, n),
        )
        self._edge_obs = obs
        self._boundary = graph.num_detectors

    # -- public API ------------------------------------------------------------

    def decode(self, detectors: np.ndarray) -> int:
        """Decode one detector bitstring into an observable-flip bitmask."""
        defects = np.flatnonzero(detectors)
        if defects.size == 0:
            return 0
        return self._decode_defects(defects)

    def _decode_one_defects(self, defects: list[int]) -> int:
        """Dedup fast path: decode a pre-extracted defect index list."""
        if not defects:
            return 0
        return self._decode_defects(np.asarray(defects, dtype=np.int64))

    # decode_batch (with syndrome dedup) is inherited from Decoder

    # -- internals ---------------------------------------------------------------

    def _decode_defects(self, defects: np.ndarray) -> int:
        sources = np.concatenate([defects, [self._boundary]])
        dist, pred = csgraph.dijkstra(
            self._matrix, indices=sources, return_predecessors=True
        )
        # unreachable pairs (e.g. no boundary edges at all) get a huge but
        # finite weight so blossom never sees infinities
        dist = np.where(np.isinf(dist), 1e12, dist)
        return self._match_defects(defects, dist, pred)

    def _match_defects(self, defects: np.ndarray, dist: np.ndarray, pred: np.ndarray) -> int:
        """Exact blossom matching of ``defects`` given shortest-path tables.

        ``dist``/``pred`` hold one single-source Dijkstra row per defect (in
        ``defects`` order) plus a final boundary-node row.  Each row depends
        only on its own source, so the batched kernel
        (:class:`~repro.decoders.kernels.BatchedMWPM`) may assemble them from
        a shared per-node table and land here bit-identically.
        """
        # imported here, not at module level: only matching needs networkx,
        # and it is the heaviest import in the package
        import networkx as nx

        k = defects.size
        g = nx.Graph()
        # defect-defect edges
        for i in range(k):
            for j in range(i + 1, k):
                g.add_edge(("d", i), ("d", j), weight=dist[i, defects[j]])
        # defect-boundary edges and zero-weight boundary-boundary edges
        for i in range(k):
            g.add_edge(("d", i), ("b", i), weight=dist[k, defects[i]])
            for j in range(i + 1, k):
                g.add_edge(("b", i), ("b", j), weight=0.0)
        matching = nx.min_weight_matching(g)

        mask = 0
        for a, b in matching:
            if a[0] == "b" and b[0] == "b":
                continue
            if a[0] == "b":
                a, b = b, a
            src_row = a[1]
            target = int(defects[b[1]]) if b[0] == "d" else self._boundary
            mask ^= self._path_obs(pred[src_row], int(defects[src_row]), target)
        return mask

    def _path_obs(self, pred_row: np.ndarray, source: int, target: int) -> int:
        """XOR of edge observable masks along the shortest path source->target."""
        mask = 0
        node = target
        while node != source:
            prev = int(pred_row[node])
            if prev < 0:  # pragma: no cover - disconnected graph
                return mask
            key = (prev, node) if (prev, node) in self._edge_obs else (node, prev)
            mask ^= self._edge_obs[key]
            node = prev
        return mask

