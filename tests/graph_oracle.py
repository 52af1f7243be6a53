"""Per-error matching-graph builder, kept as a test oracle.

This is how :meth:`repro.stab.dem.DetectorErrorModel.filtered` and
:func:`repro.decoders.build_matching_graph` worked before the DEM became
columnar: one pass over :class:`~repro.stab.dem.DemError` objects (the
model's ``errors`` view), a dict keyed by signature for the basis
projection and one keyed by ``(u, v, observable mask)`` for the edges, each
merged in row order.  ``test_decoder_graph.py`` asserts the array builder's
edges, probabilities, weights, undetectable mass and fallback count are
``==`` these.

Only the partition enumeration and the chained fallback of composite
decomposition are shared with the library (:func:`_partitions`,
:func:`_fallback_decomposition`); the edge lookup around them is this
file's own copy.
"""

from __future__ import annotations

import numpy as np

from repro._util import combine_flip_probabilities, xor_probability
from repro.decoders.graph import (
    _P_FLOOR,
    MatchingGraph,
    _fallback_decomposition,
    _partitions,
)
from repro.stab.dem import DemError, DetectorErrorModel


def filtered(dem: DetectorErrorModel, basis: str) -> DetectorErrorModel:
    """``dem`` restricted to the detectors tagged ``basis``, error by error."""
    keep = [i for i, b in enumerate(dem.detector_basis) if b == basis]
    remap = {old: new for new, old in enumerate(keep)}
    merged: dict[tuple[tuple[int, ...], tuple[int, ...]], list[float]] = {}
    for err in dem.errors:
        dets = tuple(sorted(remap[d] for d in err.detectors if d in remap))
        if not dets and not err.observables:
            continue
        merged.setdefault((dets, err.observables), []).append(err.probability)
    errors = [
        DemError(combine_flip_probabilities(ps), dets, obs)
        for (dets, obs), ps in sorted(merged.items())
    ]
    return DetectorErrorModel.from_errors(
        errors,
        num_detectors=len(keep),
        num_observables=dem.num_observables,
        detector_coords=[dem.detector_coords[i] for i in keep],
        detector_basis=[basis] * len(keep),
    )


def build_matching_graph(dem: DetectorErrorModel, *, basis: str | None = None) -> MatchingGraph:
    """The matching graph of ``dem``, built one error at a time."""
    model = filtered(dem, basis) if basis is not None else dem
    nobs = model.num_observables
    if nobs > 64:
        raise ValueError("observable bitmask limited to 64 observables")

    edges: dict[tuple[int, int, int], float] = {}
    primitive: dict[tuple[int, int], list[int]] = {}
    undetectable = np.zeros(nobs, dtype=np.float64)
    boundary = model.num_detectors
    composites = []

    for err in model.errors:
        mask = _obs_mask(err.observables)
        dets = err.detectors
        if len(dets) == 0:
            for o in err.observables:
                undetectable[o] = xor_probability(undetectable[o], err.probability)
            continue
        if len(dets) == 1:
            key = (dets[0], boundary, mask)
        elif len(dets) == 2:
            key = (dets[0], dets[1], mask)
        else:
            composites.append((dets, mask, err.probability))
            continue
        _accumulate(edges, key, err.probability)
        primitive.setdefault((key[0], key[1]), []).append(mask)

    fallbacks = 0
    for dets, mask, prob in composites:
        parts = _decompose(dets, mask, primitive, boundary)
        if parts is None:
            fallbacks += 1
            parts = _fallback_decomposition(dets, mask, boundary)
        for key in parts:
            _accumulate(edges, key, prob)

    keys = sorted(edges)
    eprob = np.array([edges[k] for k in keys], dtype=np.float64)
    eprob = np.clip(eprob, _P_FLOOR, 1 - _P_FLOOR)
    return MatchingGraph(
        num_detectors=model.num_detectors,
        num_observables=nobs,
        edge_u=np.array([k[0] for k in keys], dtype=np.int64),
        edge_v=np.array([k[1] for k in keys], dtype=np.int64),
        edge_prob=eprob,
        edge_weight=np.maximum(np.log((1 - eprob) / eprob), 1e-9),
        edge_obs=np.array([k[2] for k in keys], dtype=np.uint64),
        undetectable_obs_probability=undetectable,
        decomposition_fallbacks=fallbacks,
    )


def _obs_mask(observables) -> int:
    mask = 0
    for o in observables:
        mask |= 1 << o
    return mask


def _accumulate(edges, key, prob) -> None:
    u, v, mask = key
    if u > v:
        u, v = v, u
    key = (u, v, mask)
    edges[key] = xor_probability(edges.get(key, 0.0), prob)


def _decompose(dets, mask, primitive, boundary):
    """Split a composite into known edges, each with its first-seen mask."""
    best = None
    for parts in _partitions(list(dets)):
        keys = []
        total_mask = 0
        for part in parts:
            uv = (part[0], part[1]) if len(part) == 2 else (part[0], boundary)
            masks = primitive.get(uv)
            if masks is None:
                break
            keys.append((uv[0], uv[1], masks[0]))
            total_mask ^= masks[0]
        else:
            if total_mask == mask:
                return keys
            if best is None:
                residual = total_mask ^ mask
                best = [(keys[0][0], keys[0][1], keys[0][2] ^ residual)] + keys[1:]
    return best
