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
* :mod:`~repro.decoders.kernels` — decode-kernel backends for the
  distinct-syndrome matrix: ``python`` (scalar reference) and ``cext`` (C
  union-find built with the system compiler, plus batched predecode,
  hierarchical and MWPM kernels; degrades to ``python`` without one).
  Backends are bit-identical; select via ``REPRO_DECODE_BACKEND``, the CLI
  ``--decode-backend`` flag, or the ``backend=`` arguments (docs/DECODERS.md).
* Concrete decoders: :class:`UnionFindDecoder` (workhorse),
  :class:`MWPMDecoder` (accuracy reference), :class:`LookupTableDecoder`
  (exact within budget), :class:`PredecodedDecoder` (local pass in front of a
  global decoder), and :class:`HierarchicalDecoder` (LUT -> slow decoder with
  a latency model).
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
from .hierarchical import DecodeStats, HierarchicalDecoder, measure_decoder_latencies
from .lut import (
    LookupTableDecoder,
    lut_entry_bytes,
    lut_weight_threshold,
    max_entries_for_budget,
)
from .mwpm import MWPMDecoder
from .predecoder import PredecodedDecoder, Predecoder, PredecodeStats
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
    "DecodeStats",
    "HierarchicalDecoder",
    "measure_decoder_latencies",
    "LookupTableDecoder",
    "lut_entry_bytes",
    "lut_weight_threshold",
    "max_entries_for_budget",
    "MWPMDecoder",
    "PredecodedDecoder",
    "Predecoder",
    "PredecodeStats",
    "UnionFindDecoder",
]
