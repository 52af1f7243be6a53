"""Decoders for detector error models, built around a batch decoding engine.

Every decoder derives from :class:`~repro.decoders.batch.Decoder`: it
implements ``decode(detectors) -> int`` (an observable-flip bitmask) and
inherits a ``decode_batch`` that deduplicates identical syndromes — packs the
boolean detector rows into ``uint64`` words
(:mod:`~repro.decoders.kernels.plane`), groups identical words with a hash
table, decodes each distinct syndrome once, and scatters the masks back
with one vectorized bitmask->bool expansion.  :func:`decode_words` is the
same path for already-packed rows, as the LER pipeline samples them.  At the p ~ 1e-3 error rates of the paper's sweeps
this collapses a 100k-shot batch to a few thousand decode calls while
producing bit-identical predictions.

Layers on top of the base class:

* :class:`~repro.decoders.batch.BatchDecodingEngine` — dedup plus
  throughput statistics accumulated across batches (each batch decodes its
  own distinct syndromes; nothing is memoized between batches); used by the
  streaming LER pipeline (:mod:`repro.experiments.ler`).
* :mod:`~repro.decoders.kernels` — whole-matrix kernels for the
  distinct-syndrome matrix: the C union-find built with the system
  compiler and the batched MWPM kernel, bound whenever the C library
  loads; without it the scalar pass runs.  Both paths are bit-identical
  (docs/DECODERS.md).
* Concrete decoders: :class:`UnionFindDecoder` (workhorse) and
  :class:`MWPMDecoder` (accuracy reference).
"""

from . import kernels
from .batch import (
    BatchDecodeStats,
    BatchDecodingEngine,
    Decoder,
    decode_batch_dedup,
    decode_words,
    expand_obs_masks,
)
from .graph import MatchingGraph, build_matching_graph, graphlike_distance
from .mwpm import MWPMDecoder
from .unionfind import UnionFindDecoder

__all__ = [
    "kernels",
    "BatchDecodeStats",
    "BatchDecodingEngine",
    "Decoder",
    "decode_batch_dedup",
    "decode_words",
    "expand_obs_masks",
    "MatchingGraph",
    "build_matching_graph",
    "graphlike_distance",
    "MWPMDecoder",
    "UnionFindDecoder",
]
