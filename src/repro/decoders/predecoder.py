"""Local predecoding (the Clique / local-predecoder family the paper cites).

A predecoder removes the trivial majority of defects — isolated pairs
connected by a single graph edge, and isolated boundary-adjacent defects —
before the expensive global decoder runs.  This both shrinks the global
decoder's workload (the latency motivation of Sec. 7.5's related work) and
leaves the hard, correlated cores (like Passive synchronization's merge-round
spike) for matching.

:class:`PredecodedDecoder` wraps any decoder with this local pass and tracks
how much of the syndrome the predecoder absorbed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .batch import Decoder
from .graph import MatchingGraph

__all__ = ["Predecoder", "PredecodedDecoder", "PredecodeStats"]


@dataclass
class PredecodeStats:
    """Aggregate effect of the local pass over a batch."""

    shots: int = 0
    defects_total: int = 0
    defects_removed: int = 0
    fully_predecoded_shots: int = 0

    @property
    def removal_fraction(self) -> float:
        return self.defects_removed / self.defects_total if self.defects_total else 0.0

    @property
    def offload_fraction(self) -> float:
        """Shots the global decoder never saw."""
        return self.fully_predecoded_shots / self.shots if self.shots else 0.0


class Predecoder:
    """Local pass: match isolated defect pairs and lonely boundary defects."""

    def __init__(self, graph: MatchingGraph):
        self.graph = graph
        indptr, eids = graph.adjacency()
        self._indptr, self._eids = indptr, eids
        self._eu, self._ev = graph.edge_u, graph.edge_v
        self._eobs = graph.edge_obs
        self._boundary = graph.boundary_node
        # cheapest boundary edge per detector (if any)
        nb = graph.num_detectors
        self._boundary_edge = np.full(nb, -1, dtype=np.int64)
        best = np.full(nb, np.inf)
        for e in range(graph.num_edges):
            u, v = int(graph.edge_u[e]), int(graph.edge_v[e])
            if v == self._boundary and graph.edge_weight[e] < best[u]:
                best[u] = graph.edge_weight[e]
                self._boundary_edge[u] = e
            if u == self._boundary and graph.edge_weight[e] < best[v]:
                best[v] = graph.edge_weight[e]
                self._boundary_edge[v] = e
        # built lazily by the first batched pass; two decode threads racing
        # here both build the same tables from the immutable graph, and the
        # one attribute store that publishes them is atomic, so a duplicate
        # build costs time but never a wrong or half-built table
        self._batch_tables = None

    def neighbours(self, node: int, defect_set: set[int]) -> list[tuple[int, int]]:
        """(edge, other-defect) pairs among this defect's direct neighbours."""
        out = []
        for e in self._eids[self._indptr[node] : self._indptr[node + 1]]:
            e = int(e)
            other = int(self._ev[e]) if int(self._eu[e]) == node else int(self._eu[e])
            if other in defect_set:
                out.append((e, other))
        return out

    def apply(self, detectors: np.ndarray) -> tuple[np.ndarray, int, int]:
        """One local pass; returns (residual syndrome, obs mask, removed count)."""
        residual = detectors.copy()
        defects = set(np.flatnonzero(residual).tolist())
        mask = 0
        removed = 0
        for node in sorted(defects):
            if node not in defects:
                continue
            partners = self.neighbours(node, defects)
            other_defects = {o for _, o in partners}
            if len(other_defects) == 1:
                # exactly one defect neighbour: check it pairs back uniquely
                edge, other = partners[0]
                back = {o for _, o in self.neighbours(other, defects)} - {node}
                if not back:
                    mask ^= int(self._eobs[edge])
                    defects.discard(node)
                    defects.discard(other)
                    residual[node] = residual[other] = False
                    removed += 2
            elif not other_defects:
                # isolated defect: send it to the boundary if one is adjacent
                e = self._boundary_edge[node]
                if e >= 0:
                    mask ^= int(self._eobs[e])
                    defects.discard(node)
                    residual[node] = False
                    removed += 1
        return residual, mask, removed

    def _ensure_batch_tables(self):
        """Sparse tables for :meth:`apply_batch` (built once per graph).

        ``adj``  — boolean detector-to-detector adjacency (boundary excluded),
        ``nbr``  — ``nbr[v, n] = v + 1`` where v ~ n, so a row-matrix product
        sums the 1-based indices of a node's defect neighbours (which *is*
        the unique neighbour's index when the count is one), and
        ``first_edge`` — ``first_edge[u, v]`` = 1 + the first edge id in u's
        adjacency order connecting u to v, matching the edge the scalar pass
        picks for a pair removal triggered at u.
        """
        if self._batch_tables is not None:
            return self._batch_tables
        nd = self.graph.num_detectors
        pair_u, pair_v, first = [], [], {}
        for node in range(nd):
            for e in self._eids[self._indptr[node] : self._indptr[node + 1]]:
                e = int(e)
                other = int(self._ev[e]) if int(self._eu[e]) == node else int(self._eu[e])
                if other == self._boundary:
                    continue
                if (node, other) not in first:
                    first[(node, other)] = e
                    pair_u.append(node)
                    pair_v.append(other)
        fe = np.array([first[(u, v)] for u, v in zip(pair_u, pair_v)], dtype=np.int64)
        pair_u = np.array(pair_u, dtype=np.int64)
        pair_v = np.array(pair_v, dtype=np.int64)
        adj = sp.csr_matrix(
            (np.ones(pair_u.size, dtype=np.int64), (pair_u, pair_v)),
            shape=(nd, nd),
        )
        nbr = sp.csr_matrix(
            (pair_u + 1, (pair_u, pair_v)), shape=(nd, nd), dtype=np.int64
        )
        first_edge = sp.csr_matrix((fe + 1, (pair_u, pair_v)), shape=(nd, nd))
        self._batch_tables = (adj, nbr, first_edge)
        return self._batch_tables

    def apply_batch(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`apply` over a ``(n, num_detectors)`` bool matrix.

        Returns ``(residuals, masks, removed)`` with one row/entry per input
        row, bit-identical to calling :meth:`apply` on each row.  The scalar
        pass only ever removes defects whose entire defect-neighbourhood is
        removed with them (an isolated defect, or a mutually-exclusive pair),
        so no removal changes any other defect's classification — the whole
        pass is a simultaneous function of the initial defect sets and
        vectorizes exactly: two sparse matrix products classify every defect
        of every row at once.
        """
        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self.graph.num_detectors:
            raise ValueError(
                f"expected (n, {self.graph.num_detectors}) detector rows, "
                f"got shape {rows.shape}"
            )
        n = rows.shape[0]
        residual = rows.copy()
        masks = np.zeros(n, dtype=np.uint64)
        removed = np.zeros(n, dtype=np.int64)
        rnz, cnz = np.nonzero(rows)
        if rnz.size == 0:
            return residual, masks, removed
        adj, nbr, first_edge = self._ensure_batch_tables()
        nd = self.graph.num_detectors
        rint = sp.csr_matrix(
            (np.ones(rnz.size, dtype=np.int64), (rnz, cnz)), shape=(n, nd)
        )
        # distinct-defect-neighbour count and 1-based neighbour-index sum,
        # evaluated at every defect position
        counts = np.asarray((rint @ adj)[rnz, cnz]).ravel()
        nbr_sum = np.asarray((rint @ nbr)[rnz, cnz]).ravel()

        eobs = self._eobs.astype(np.uint64)

        # isolated defects route to the boundary when a boundary edge exists
        iso = np.flatnonzero(counts == 0)
        iso_edge = self._boundary_edge[cnz[iso]]
        iso = iso[iso_edge >= 0]
        if iso.size:
            residual[rnz[iso], cnz[iso]] = False
            np.add.at(removed, rnz[iso], 1)
            np.bitwise_xor.at(masks, rnz[iso], eobs[self._boundary_edge[cnz[iso]]])

        # mutually-exclusive pairs: both endpoints have exactly one defect
        # neighbour (each other); the scalar loop removes the pair when it
        # reaches min(u, v), taking the first edge in that node's adjacency
        single = np.flatnonzero(counts == 1)
        if single.size:
            partner = nbr_sum[single] - 1
            # the partner is itself a defect of the same row, so its flat
            # (row, node) coordinate is guaranteed to be present here
            flat = rnz * np.int64(nd) + cnz  # sorted: np.nonzero row-major order
            back = np.searchsorted(flat, rnz[single] * np.int64(nd) + partner)
            emit = (counts[back] == 1) & (cnz[single] < partner)
            pr = rnz[single][emit]
            pu = cnz[single][emit]
            pv = partner[emit]
            if pr.size:
                residual[pr, pu] = False
                residual[pr, pv] = False
                np.add.at(removed, pr, 2)
                pair_edges = np.asarray(first_edge[pu, pv]).ravel() - 1
                np.bitwise_xor.at(masks, pr, eobs[pair_edges])
        return residual, masks, removed


class PredecodedDecoder(Decoder):
    """Predecoder in front of any ``decode(detectors) -> mask`` decoder.

    ``decode_batch`` is inherited from :class:`~repro.decoders.batch.Decoder`;
    the offload statistics stay exact under syndrome dedup because each
    distinct syndrome's contribution is weighted by its shot multiplicity.
    They accumulate in :attr:`stats`, unless the calling thread routed them
    into a sink of its own with :meth:`stats_into` — which is how a
    :class:`~repro.decoders.batch.BatchDecodingEngine` counts only its own
    calls on a decoder that several decode threads share.
    """

    def __init__(self, graph: MatchingGraph, slow_decoder):
        self.graph = graph
        self.predecoder = Predecoder(graph)
        self.slow = slow_decoder
        self.stats = PredecodeStats()
        self._sinks = threading.local()

    @contextmanager
    def stats_into(self, sink: PredecodeStats):
        """Count this thread's decodes inside the block into ``sink`` only."""
        outer = getattr(self._sinks, "sink", None)
        self._sinks.sink = sink
        try:
            yield sink
        finally:
            self._sinks.sink = outer

    def _tally(self) -> PredecodeStats:
        """Where this thread's offload statistics go right now."""
        sink = getattr(self._sinks, "sink", None)
        return self.stats if sink is None else sink

    def decode(self, detectors: np.ndarray) -> int:
        """Decode one detector bitstring into an observable-flip bitmask."""
        return self._decode_one(detectors, 1)

    def _decode_one(self, detectors: np.ndarray, multiplicity: int = 1) -> int:
        residual, mask, removed = self.predecoder.apply(detectors)
        tally = self._tally()
        tally.shots += multiplicity
        tally.defects_total += int(detectors.sum()) * multiplicity
        tally.defects_removed += removed * multiplicity
        if residual.any():
            mask ^= self.slow.decode(residual)
        else:
            tally.fully_predecoded_shots += multiplicity
        return mask

    def _decode_rows(self, rows: np.ndarray, counts, inner=None) -> np.ndarray:
        """Vectorized dedup path: one local pass over every distinct syndrome.

        Statistics stay exact under dedup (weighted by the per-row shot
        multiplicities ``counts``, as in :meth:`_decode_one`; None counts
        each row once).  Only the rows that survive the local pass reach
        the slow decoder: through ``inner``, the slow decoder's bound
        kernel, as one matrix when given (the C path's
        :class:`~repro.decoders.kernels.BatchedPredecode`), else one
        ``slow.decode`` per residual row.
        """
        n = rows.shape[0]
        mult = (
            np.ones(n, dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)
        )
        residuals, masks, removed = self.predecoder.apply_batch(rows)
        leftover = residuals.any(axis=1)
        tally = self._tally()
        tally.shots += int(mult.sum())
        tally.defects_total += int((rows.sum(axis=1, dtype=np.int64) * mult).sum())
        tally.defects_removed += int((removed * mult).sum())
        tally.fully_predecoded_shots += int(mult[~leftover].sum())
        hard = np.flatnonzero(leftover)
        if hard.size == 0:
            return masks
        sub = residuals[hard]
        if inner is not None:
            # counts=None: the scalar pass reaches the slow decoder via plain
            # ``slow.decode`` (multiplicity 1 per residual row), so a
            # stats-keeping slow decoder must see the same weights
            masks[hard] ^= np.asarray(inner(sub, None), dtype=np.uint64)
        else:
            masks[hard] ^= np.fromiter(
                (self.slow.decode(r) for r in sub), dtype=np.uint64, count=hard.size
            )
        return masks
