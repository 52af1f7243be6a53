"""Two-level (LUT -> MWPM) hierarchical decoder with a latency model.

Models the decoding system of Sec. 7.5: a fast lookup-table decoder in front
of a slow accurate matching decoder.  A syndrome found in the LUT costs
``hit_latency_ns`` (20 ns in the paper); a miss invokes the backing decoder
and costs a latency drawn from an empirical distribution (the paper samples
from a MWPM latency dataset; we sample from latencies measured on our own
matching decoder, or from a user-provided array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .._util import resolve_rng
from .batch import Decoder, expand_obs_masks
from .graph import MatchingGraph
from .lut import LookupTableDecoder, max_entries_for_budget
from .unionfind import UnionFindDecoder

__all__ = ["HierarchicalDecoder", "DecodeStats", "measure_decoder_latencies"]


@dataclass
class DecodeStats:
    """Aggregate outcome of decoding a batch through the hierarchy."""

    shots: int
    hits: int
    total_latency_ns: float

    @property
    def hit_rate(self) -> float:
        return self.hits / self.shots if self.shots else 0.0

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / self.shots if self.shots else 0.0


class HierarchicalDecoder(Decoder):
    """LUT first, accurate decoder on miss; tracks latency statistics."""

    def __init__(
        self,
        graph: MatchingGraph,
        *,
        lut_size_bytes: int,
        lut_max_errors: int = 3,
        hit_latency_ns: float = 20.0,
        miss_latencies_ns: np.ndarray | None = None,
        slow_decoder=None,
    ):
        self.graph = graph
        max_entries = max_entries_for_budget(
            lut_size_bytes, graph.num_detectors, graph.num_observables
        )
        self.lut = LookupTableDecoder(graph, max_errors=lut_max_errors, max_entries=max_entries)
        self.slow = slow_decoder if slow_decoder is not None else UnionFindDecoder(graph)
        self.hit_latency_ns = hit_latency_ns
        self.miss_latencies_ns = (
            np.asarray(miss_latencies_ns, dtype=np.float64)
            if miss_latencies_ns is not None
            else None
        )

    def decode(self, detectors: np.ndarray) -> int:
        """Decode one shot through the hierarchy (no latency bookkeeping)."""
        hit, mask = self.lut.lookup(detectors)
        return mask if hit else self.slow.decode(detectors)

    # decode_batch (predictions only, with syndrome dedup) is inherited from
    # Decoder; with the C library loaded it runs the batched row-split
    # kernel (bulk LUT lookup, misses decoded through the slow decoder's own
    # kernel — see repro.decoders.kernels.BatchedHierarchical).  The latency
    # model lives in decode_batch_stats below and stays per-shot.

    def decode_batch_stats(
        self,
        detectors: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, DecodeStats]:
        """Decode shots, returning predictions and latency statistics.

        Unlike the inherited ``decode_batch`` this keeps the per-shot loop,
        because the latency model draws one (stochastic) miss latency per
        decode request; only the bitmask expansion is vectorized.
        """
        rng = resolve_rng(rng)
        shots = detectors.shape[0]
        masks = np.zeros(shots, dtype=np.uint64)
        hits = 0
        latency = 0.0
        for s in range(shots):
            hit, mask = self.lut.lookup(detectors[s])
            if hit:
                hits += 1
                latency += self.hit_latency_ns
            else:
                mask = self.slow.decode(detectors[s])
                latency += self._miss_latency(rng)
            masks[s] = mask
        out = expand_obs_masks(masks, self.graph.num_observables)
        return out, DecodeStats(shots=shots, hits=hits, total_latency_ns=latency)

    def _miss_latency(self, rng: np.random.Generator) -> float:
        if self.miss_latencies_ns is not None and self.miss_latencies_ns.size:
            return float(self.miss_latencies_ns[rng.integers(0, self.miss_latencies_ns.size)])
        # fallback synthetic distribution: lognormal around 1 us, matching the
        # scale of software MWPM implementations
        return float(rng.lognormal(mean=np.log(1000.0), sigma=0.5))


def measure_decoder_latencies(
    decoder,
    detectors: np.ndarray,
    *,
    max_samples: int = 2000,
) -> np.ndarray:
    """Wall-clock latencies (ns) of ``decoder.decode`` on sampled syndromes.

    Used to build the miss-latency dataset for Fig. 22 from our own matching
    decoder, substituting for the paper's proprietary MWPM latency dataset.
    """
    n = min(max_samples, detectors.shape[0])
    out = np.zeros(n, dtype=np.float64)
    for s in range(n):
        with obs.stopwatch() as sw:
            decoder.decode(detectors[s])
        out[s] = sw.ns
    return out
