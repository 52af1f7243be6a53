"""Batched kernels for the wrapped and hybrid decode paths.

The ``cext`` backend decodes stock union-find with the C kernel
(:class:`~repro.decoders.kernels.cext.CextUnionFind`); the predecoder-
wrapped, hierarchical and MWPM paths get the three composable kernels of
this module, each honouring the backend contract (``kernel(rows, counts)
-> masks``, bit-identical to the decoder's scalar pass):

* :class:`BatchedPredecode` — the decoder's own whole-matrix pass
  (:meth:`PredecodedDecoder._decode_rows`: one vectorized local pass, then
  offload statistics), with the *residual* rows that survive it handed to
  the inner decoder's bound kernel without leaving matrix form, so
  :class:`~repro.decoders.predecoder.PredecodeStats` stays scalar-identical.
* :class:`BatchedHierarchical` — a batched row-split: every row is looked
  up in the LUT in bulk (:meth:`LookupTableDecoder.lookup_batch`), and only
  the flagged misses take the slow path — in one whole-matrix call when the
  slow decoder has a bound kernel, else one scalar decode per miss.
* :class:`BatchedMWPM` — batch-level shortest-path reuse: the scalar pass
  runs one multi-source Dijkstra per syndrome, but across a batch the same
  defect nodes recur constantly, so this kernel computes each node's
  single-source row once per kernel lifetime and reassembles per-row tables
  from the shared cache.  The blossom matching stays exact and per-row
  (:meth:`MWPMDecoder._match_defects`); a Dijkstra row depends only on its
  own source node, so the assembled tables — and hence the matchings — are
  bit-identical to the scalar pass.

The inner-kernel composition is recursive: the backend binds
``decoder.slow`` through itself, so e.g. a predecoder wrapping MWPM gets
``BatchedPredecode(inner=BatchedMWPM)`` and a hierarchical decoder over
union-find gets ``BatchedHierarchical(inner=CextUnionFind)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

__all__ = ["BatchedPredecode", "BatchedHierarchical", "BatchedMWPM"]


def _check_rows(rows: np.ndarray, num_detectors: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=bool)
    if rows.ndim != 2 or rows.shape[1] != num_detectors:
        raise ValueError(
            f"expected (n, {num_detectors}) detector rows, got shape {rows.shape}"
        )
    return rows


class _BoundKernel:
    """Base for kernels bound to one decoder instance.

    Holds the decoder strongly.  Backends cache bound kernels *on the
    decoder* (see ``CextBackend.bind``), so decoder and kernel form an
    ordinary reference cycle the garbage collector reclaims together —
    a process-lifetime backend singleton never pins either.
    """

    def __init__(self, decoder):
        self.decoder = decoder

    def __call__(self, rows: np.ndarray, counts=None) -> np.ndarray:
        return self.decode_rows(rows, counts)


class BatchedPredecode(_BoundKernel):
    """Whole-matrix kernel for one :class:`PredecodedDecoder`.

    ``inner`` is the bound kernel of the wrapped slow decoder (or ``None``,
    in which case residual rows fall back to one scalar ``slow.decode``
    each — still correct, just not accelerated).
    """

    def __init__(self, decoder, inner=None):
        super().__init__(decoder)
        self.inner = inner

    def decode_rows(self, rows: np.ndarray, counts=None) -> np.ndarray:
        """Observable bitmask per row: local pass, then the inner kernel.

        ``counts`` (per-row shot multiplicities) weights the decoder's
        offload statistics exactly as the scalar dedup path does.
        """
        dec = self.decoder
        rows = _check_rows(rows, dec.graph.num_detectors)
        return dec._decode_rows(rows, counts, inner=self.inner)


class BatchedHierarchical(_BoundKernel):
    """Batched row-split kernel for one :class:`HierarchicalDecoder`.

    Bulk LUT lookup decides every row at once; only the flagged misses take
    the slow path — through ``inner`` (the slow decoder's bound kernel) as
    one whole-matrix call when available.  The latency-model path
    (``decode_batch_stats``) is untouched: it draws one stochastic miss
    latency per shot and must stay a per-shot loop.
    """

    def __init__(self, decoder, inner=None):
        super().__init__(decoder)
        self.inner = inner

    def decode_rows(self, rows: np.ndarray, counts=None) -> np.ndarray:
        """Observable bitmask per row: bulk LUT, batched slow path on miss."""
        dec = self.decoder
        rows = _check_rows(rows, dec.graph.num_detectors)
        hits, masks = dec.lut.lookup_batch(rows)
        miss = np.flatnonzero(~hits)
        if miss.size:
            sub = rows[miss]
            if self.inner is not None:
                # counts=None: scalar misses go through ``slow.decode`` with
                # multiplicity 1, so the inner kernel must too
                masks[miss] = np.asarray(self.inner(sub, None), dtype=np.uint64)
            else:
                for j, i in enumerate(miss.tolist()):
                    masks[i] = dec.slow.decode(sub[j])
        return masks


class BatchedMWPM(_BoundKernel):
    """Shared-shortest-path batch kernel for one :class:`MWPMDecoder`.

    Stateful across calls by design: the per-node ``(dist, pred)`` rows are
    a pure function of the matching graph, so the cache (bounded by the
    node count) keeps paying across batches of a streaming run.  Unlike the
    scalar decoder this kernel holds no per-call scratch, so decode threads
    may share it: two threads missing the same node both compute the same
    row and store it with one atomic dict assignment, and entries are never
    removed, so a duplicate build costs time but never a wrong table.
    """

    def __init__(self, decoder):
        super().__init__(decoder)
        self.graph = decoder.graph
        #: node -> (dist row, predecessor row), computed on demand and
        #: reused for every syndrome the node appears in
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def decode_rows(self, rows: np.ndarray, counts=None) -> np.ndarray:
        """Observable bitmask per row; ``counts`` is accepted and ignored
        (MWPM keeps no per-shot statistics)."""
        dec = self.decoder
        rows = _check_rows(rows, self.graph.num_detectors)
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
