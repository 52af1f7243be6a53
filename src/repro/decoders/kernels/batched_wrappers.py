"""The batched MWPM kernel.

When the C library loads, stock union-find decodes with the C kernel
(:class:`~repro.decoders.kernels.cext.CextUnionFind`) and MWPM with
:class:`BatchedMWPM`, which honours the same kernel contract
(``decode_rows(rows) -> masks``, bit-identical to the decoder's scalar
pass) through batch-level shortest-path reuse: the scalar pass runs one
multi-source Dijkstra per syndrome, but across a batch the same defect
nodes recur constantly, so this kernel computes each node's single-source
row once per kernel lifetime and reassembles per-row tables from the
shared cache.  The blossom matching stays exact and per-row
(:meth:`MWPMDecoder._match_defects`); a Dijkstra row depends only on its
own source node, so the assembled tables — and hence the matchings — are
bit-identical to the scalar pass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

__all__ = ["BatchedMWPM"]


class BatchedMWPM:
    """Shared-shortest-path batch kernel for one :class:`MWPMDecoder`.

    Holds the decoder strongly.  :func:`~repro.decoders.kernels.bind`
    caches the kernel *on the decoder*, so decoder and kernel form an
    ordinary reference cycle the garbage collector reclaims together.

    Stateful across calls by design: the per-node ``(dist, pred)`` rows are
    a pure function of the matching graph, so the cache (bounded by the
    node count) keeps paying across batches of a streaming run.  Unlike the
    scalar decoder this kernel holds no per-call scratch, so decode threads
    may share it: two threads missing the same node both compute the same
    row and store it with one atomic dict assignment, and entries are never
    removed, so a duplicate build costs time but never a wrong table.
    """

    def __init__(self, decoder):
        self.decoder = decoder
        self.graph = decoder.graph
        #: node -> (dist row, predecessor row), computed on demand and
        #: reused for every syndrome the node appears in
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        return self.decode_rows(rows)

    def decode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Observable bitmask per row of a ``(n, num_detectors)`` bool matrix."""
        dec = self.decoder
        rows = np.asarray(rows, dtype=bool)
        num_detectors = self.graph.num_detectors
        if rows.ndim != 2 or rows.shape[1] != num_detectors:
            raise ValueError(
                f"expected (n, {num_detectors}) detector rows, got shape {rows.shape}"
            )
        n = rows.shape[0]
        masks = np.zeros(n, dtype=np.uint64)
        rnz, cnz = np.nonzero(rows)
        if rnz.size == 0:
            return masks
        self._ensure_rows(np.append(np.unique(cnz), dec._boundary))
        tables = self._rows
        bdist, bpred = tables[dec._boundary]
        starts = np.searchsorted(rnz, np.arange(n + 1))
        cols = cnz.tolist()
        for i in range(n):
            lo, hi = int(starts[i]), int(starts[i + 1])
            if lo == hi:
                continue
            defects = cols[lo:hi]
            picked = [tables[c] for c in defects]
            # same layout the scalar pass builds: one row per defect, then
            # the boundary row last
            dist = np.vstack([t[0] for t in picked] + [bdist])
            pred = np.vstack([t[1] for t in picked] + [bpred])
            masks[i] = dec._match_defects(
                np.asarray(defects, dtype=np.int64), dist, pred
            )
        return masks

    def _ensure_rows(self, nodes: np.ndarray) -> None:
        """Compute (once) the Dijkstra rows of any nodes not cached yet."""
        missing = [int(v) for v in nodes if int(v) not in self._rows]
        if not missing:
            return
        dist, pred = csgraph.dijkstra(
            self.decoder._matrix, indices=missing, return_predecessors=True
        )
        # same unreachable-pair clipping as the scalar pass
        dist = np.where(np.isinf(dist), 1e12, dist)
        for j, node in enumerate(missing):
            self._rows[node] = (dist[j], pred[j])
