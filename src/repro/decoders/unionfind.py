"""Union-find decoder (Delfosse–Nickerson) with weighted growth and peeling.

This is the project's workhorse decoder: almost-linear-time, accuracy close
to MWPM on surface-code graphs, and fast enough in pure Python to decode the
tens of thousands of shots per configuration used by the benchmark harness.

Algorithm: defects seed clusters; active (odd, boundary-free) clusters grow
all frontier edges by half-integer weight steps; fully grown edges union the
clusters; when every cluster is neutral, a spanning forest of each cluster is
peeled from the leaves to produce a correction, whose observable masks are
XOR-ed into the prediction.
"""

from __future__ import annotations

import threading

import numpy as np

from .batch import Decoder
from .graph import MatchingGraph

__all__ = ["UnionFindDecoder"]


class _Scratch:
    """One thread's reusable union-find state over ``n`` graph nodes."""

    __slots__ = ("parent", "rank", "parity", "bnd", "members", "in_use")

    def __init__(self, n: int):
        # reset to this pristine shape after every decode (cheaper than
        # rebuilding dicts per shot)
        self.parent = list(range(n))
        self.rank = [0] * n
        self.parity = [0] * n
        self.bnd = [False] * n
        self.members: list = [None] * n
        self.in_use = False


class UnionFindDecoder(Decoder):
    """Decodes detector bitstrings into observable-flip predictions.

    Each thread reuses its own per-node scratch state between ``decode``
    calls (reset after every call, built on the thread's first decode), so
    one instance may serve several threads at once — a sweep's decode
    threads share the pipeline's cached decoder.  It is not reentrant on
    one thread: recursing into ``decode`` from a subclass hook while a
    decode is running would silently corrupt the scratch lists and produce
    wrong corrections, so :meth:`_decode_defects` guards against it and
    raises ``RuntimeError`` instead.
    """

    def __init__(self, graph: MatchingGraph, *, weight_resolution: int = 16):
        self.graph = graph
        indptr, eids = graph.adjacency()
        self._weights = graph.integer_weights(weight_resolution)
        self._boundary = graph.boundary_node
        # hot-path state as plain python ints/lists: the growth and peeling
        # loops are pure python, and per-element numpy indexing there costs
        # several times a list access
        self._adj = [
            eids[indptr[n] : indptr[n + 1]].tolist() for n in range(graph.num_detectors + 1)
        ]
        self._wt = self._weights.tolist()
        self._eu = graph.edge_u.tolist()
        self._ev = graph.edge_v.tolist()
        self._eobs = [int(m) for m in graph.edge_obs]
        #: per-thread :class:`_Scratch` (attribute ``s``)
        self._local = threading.local()

    # -- public API ----------------------------------------------------------

    def decode(self, detectors: np.ndarray) -> int:
        """Decode one shot (boolean detector vector) to an obs bitmask."""
        defects = np.flatnonzero(detectors)
        if defects.size == 0:
            return 0
        return self._decode_defects(defects.tolist())

    def _decode_one_defects(self, defects: list[int], multiplicity: int = 1) -> int:
        """Dedup fast path: decode a pre-extracted defect index list."""
        if not defects:
            return 0
        return self._decode_defects(defects)

    # decode_batch (with syndrome dedup) is inherited from Decoder

    # -- core ------------------------------------------------------------------

    def _decode_defects(self, defects: list[int]) -> int:
        # union-find over this thread's reusable per-node scratch lists;
        # `touched` records every node whose state left the pristine shape so
        # the finally-block can restore it in O(touched) instead of
        # reallocating
        scratch = getattr(self._local, "s", None)
        if scratch is None:
            scratch = self._local.s = _Scratch(self.graph.num_detectors + 1)
        if scratch.in_use:
            raise RuntimeError(
                "UnionFindDecoder is not reentrant: a decode is already "
                "running on this thread's scratch state (see the class "
                "docstring)"
            )
        scratch.in_use = True
        parent = scratch.parent
        rank = scratch.rank
        parity = scratch.parity
        touches_boundary = scratch.bnd
        members = scratch.members
        boundary = self._boundary
        touched: list[int] = []
        growth: dict[int, int] = {}
        solid: set[int] = set()

        def find(a: int) -> int:
            root = a
            while parent[root] != root:
                root = parent[root]
            while parent[a] != a:
                parent[a], a = root, parent[a]
            return root

        def add_node(a: int) -> int:
            if members[a] is None:
                touched.append(a)
                touches_boundary[a] = a == boundary
                members[a] = [a]
                return a
            return find(a)

        def union(a: int, b: int) -> int:
            ra, rb = find(a), find(b)
            if ra == rb:
                return ra
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            if rank[ra] == rank[rb]:
                rank[ra] += 1
            parity[ra] ^= parity[rb]
            if touches_boundary[rb]:
                touches_boundary[ra] = True
            members[ra].extend(members[rb])
            return ra

        try:
            # seed clusters: defect indices are detector nodes (never the
            # boundary), each starting as its own odd root; a repeated index
            # cancels its own parity
            for d in defects:
                if members[d] is None:
                    touched.append(d)
                    parity[d] = 1
                    members[d] = [d]
                else:
                    parity[d] ^= 1

            adj = self._adj
            eu, ev, weights = self._eu, self._ev, self._wt

            max_rounds = 4 * (self.graph.num_edges + 2)
            for _ in range(max_rounds):
                active_roots = set()
                for d in defects:
                    r = find(d)
                    if parity[r] == 1 and not touches_boundary[r]:
                        active_roots.add(r)
                if not active_roots:
                    break
                # frontier: non-solid edges incident to active clusters, with
                # the number of distinct active clusters pushing on each edge
                # (an edge between two active clusters grows from both sides)
                frontier: dict[int, int] = {}
                for root in active_roots:
                    seen: set[int] = set()
                    for node in members[root]:
                        for e in adj[node]:
                            if e not in solid and e not in seen:
                                seen.add(e)
                                frontier[e] = frontier.get(e, 0) + 1
                if not frontier:
                    break  # isolated odd cluster with no frontier: give up
                # event-driven growth: jump straight to the next completion
                grown = growth.get
                step = None
                for e, c in frontier.items():
                    need = -((grown(e, 0) - weights[e]) // c)
                    if step is None or need < step:
                        step = need
                completed: list[int] = []
                for e, c in frontier.items():
                    g = grown(e, 0) + c * step
                    growth[e] = g
                    if g >= weights[e]:
                        completed.append(e)
                for e in completed:
                    if e in solid:
                        continue
                    solid.add(e)
                    a, b = eu[e], ev[e]
                    add_node(a)
                    add_node(b)
                    union(a, b)

            return self._peel(defects, solid)
        finally:
            for a in touched:
                parent[a] = a
                rank[a] = 0
                parity[a] = 0
                touches_boundary[a] = False
                members[a] = None
            scratch.in_use = False

    def _peel(self, defects: list[int], solid: set[int]) -> int:
        """Peel a spanning forest of the solid subgraph; boundary is a sink.

        The forest is *canonical* — adjacency lists in ascending edge order,
        FIFO breadth-first traversal, component roots preferring the boundary
        node and then the first endpoint appearance — so that it depends only
        on the *content* of ``solid``, never on set iteration order.  The
        batched kernels (:mod:`repro.decoders.kernels`) reproduce exactly
        this forest to stay bit-identical with the scalar pass.
        """
        if not solid:
            return 0
        eu, ev, eobs = self._eu, self._ev, self._eobs
        adj: dict[int, list[int]] = {}
        for e in sorted(solid):
            a, b = eu[e], ev[e]
            adj.setdefault(a, []).append(e)
            adj.setdefault(b, []).append(e)

        # spanning forest via BFS, roots preferring the boundary node
        visited: set[int] = set()
        order: list[tuple[int, int, int]] = []  # (node, parent, edge)
        boundary = self._boundary
        if boundary in adj:  # boundary-first, others in first-appearance order
            nodes = [boundary] + [n for n in adj if n != boundary]
        else:
            nodes = list(adj)
        for start in nodes:
            if start in visited:
                continue
            visited.add(start)
            queue = [start]
            head = 0
            while head < len(queue):
                node = queue[head]
                head += 1
                for e in adj[node]:
                    other = ev[e] if eu[e] == node else eu[e]
                    if other in visited:
                        continue
                    visited.add(other)
                    order.append((other, node, e))
                    queue.append(other)

        defect_set: set[int] = set()
        for d in defects:
            if d in defect_set:
                defect_set.discard(d)
            else:
                defect_set.add(d)
        mask = 0
        # peel leaves (reverse BFS order): each node decides its parent edge
        for node, parent_node, e in reversed(order):
            if node in defect_set:
                mask ^= eobs[e]
                defect_set.discard(node)
                if parent_node != boundary:
                    if parent_node in defect_set:
                        defect_set.discard(parent_node)
                    else:
                        defect_set.add(parent_node)
        return mask
