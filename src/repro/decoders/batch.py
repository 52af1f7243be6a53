"""Batch decoding engine: syndrome dedup and the shared decoder base.

At the physical error rates this project sweeps (p ~ 1e-3) most shots carry
an empty or tiny syndrome, so a 100k-shot batch contains only a few thousand
*distinct* detector rows.  The engine decodes each of them once:

* :func:`decode_words` — the one batch path, on the packed syndrome data
  plane (:mod:`repro.decoders.kernels.plane`): group identical ``uint64``
  detector rows (a C hash table, or a numpy ``lexsort``), decode the
  distinct rows in one ``decode_rows(rows)`` call (a bound kernel, or the
  scalar per-row pass; only bool-row kernels get the distinct rows
  unpacked), and scatter the observable bitmasks back over the batch.  Predictions are bit-identical
  to the per-shot loop because every decoder here is deterministic.
* :class:`Decoder` — the shared base class of every decoder.  Its bool
  ``decode_batch`` packs the rows, runs :func:`decode_words` and expands
  the masks with :func:`expand_obs_masks`.
* :class:`BatchDecodingEngine` — wraps a decoder with a dedup policy and
  tracks throughput statistics (:class:`BatchDecodeStats`): shots, distinct
  syndromes, decode calls and wall-clock decode time.  There is no memo
  across batches: each batch decodes its own distinct rows, so the
  counters depend only on the sampled shots.
* decode **kernels** (:mod:`repro.decoders.kernels`) — when the host's C
  library loads, both stock decoders get a whole-matrix kernel (the C
  union-find built with the system compiler, and the shared-Dijkstra MWPM
  kernel); without it the scalar per-syndrome pass runs.  Both paths are
  bit-identical.

Decoder subclasses implement ``decode(detectors) -> int`` (an observable
bitmask, limited to 64 observables by the matching graph) and inherit the
fast batch path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .kernels import plane

__all__ = [
    "Decoder",
    "BatchDecodeStats",
    "BatchDecodingEngine",
    "expand_obs_masks",
    "decode_batch_dedup",
    "decode_words",
]


def expand_obs_masks(masks: np.ndarray, num_observables: int) -> np.ndarray:
    """Expand integer observable bitmasks to a ``(n, num_observables)`` bool array.

    The single vectorized replacement for the per-decoder
    ``for o in range(nobs): if mask >> o & 1`` loops.
    """
    masks = np.asarray(masks, dtype=np.uint64).reshape(-1)
    if num_observables == 0:
        return np.zeros((masks.size, 0), dtype=bool)
    bits = np.left_shift(np.uint64(1), np.arange(num_observables, dtype=np.uint64))
    return (masks[:, None] & bits[None, :]) != 0


@dataclass
class BatchDecodeStats:
    """Aggregate throughput counters for one engine (or one sweep)."""

    shots: int = 0
    batches: int = 0
    distinct_syndromes: int = 0
    decode_calls: int = 0
    decode_seconds: float = 0.0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of shots whose decode was avoided by syndrome grouping."""
        return 1.0 - self.decode_calls / self.shots if self.shots else 0.0

    @property
    def shots_per_second(self) -> float:
        return self.shots / self.decode_seconds if self.decode_seconds > 0 else 0.0


class Decoder:
    """Shared decoder base class: one ``decode``, one fast ``decode_batch``.

    Subclasses set ``self.graph`` (a :class:`~repro.decoders.graph.MatchingGraph`)
    and implement :meth:`decode`.
    """

    def decode(self, detectors: np.ndarray) -> int:
        """Decode one boolean detector vector into an observable bitmask."""
        raise NotImplementedError

    #: optional fast path: ``_decode_one_defects(defects) -> mask`` taking a
    #: python list of defect indices.  When a subclass provides it, the
    #: dedup path extracts all defect lists in one vectorized ``nonzero``
    #: instead of one numpy call per distinct syndrome.
    _decode_one_defects = None

    def decode_batch(
        self,
        detectors: np.ndarray,
        *,
        dedup: bool = True,
    ) -> np.ndarray:
        """Decode ``(shots, num_detectors)`` outcomes to ``(shots, nobs)`` bools."""
        return decode_batch_dedup(self, detectors, dedup=dedup)


def _scalar_decode_rows(decoder):
    """The per-row reference pass, shaped like a kernel: ``rows -> masks``."""
    decode_defects = getattr(decoder, "_decode_one_defects", None)

    def decode_rows(rows: np.ndarray) -> list[int]:
        if decode_defects is None:
            return [decoder.decode(row) for row in rows]
        # one vectorized nonzero for every distinct row instead of one per row
        n = rows.shape[0]
        rnz, cnz = np.nonzero(rows)
        starts = np.searchsorted(rnz, np.arange(n + 1)).tolist()
        cols = cnz.tolist()
        return [decode_defects(cols[starts[i] : starts[i + 1]]) for i in range(n)]

    return decode_rows


def decode_batch_dedup(
    decoder,
    detectors: np.ndarray,
    *,
    dedup: bool = True,
    stats: BatchDecodeStats | None = None,
) -> np.ndarray:
    """Dedup-and-scatter batch decode of bool rows around any decoder.

    The bool front end of :func:`decode_words`: packs ``(shots,
    num_detectors)`` outcomes into words and expands the per-shot
    observable masks to a ``(shots, num_observables)`` bool array.
    """
    masks = decode_words(decoder, _pack_rows(decoder, detectors), dedup=dedup, stats=stats)
    return expand_obs_masks(masks, decoder.graph.num_observables)


def _pack_rows(decoder, detectors: np.ndarray) -> np.ndarray:
    """Check ``(shots, num_detectors)`` bool rows against the graph and pack them."""
    det = np.asarray(detectors, dtype=bool)
    if det.ndim != 2:
        raise ValueError(f"expected a (shots, num_detectors) array, got shape {det.shape}")
    if det.shape[1] != decoder.graph.num_detectors:
        raise ValueError(
            f"detector columns ({det.shape[1]}) != graph detectors "
            f"({decoder.graph.num_detectors}); project full-DEM samples first "
            "(e.g. pipeline.mask_detectors)"
        )
    return plane.pack_words(det)


def decode_words(
    decoder,
    words: np.ndarray,
    *,
    dedup: bool = True,
    stats: BatchDecodeStats | None = None,
) -> np.ndarray:
    """Observable bitmask per shot of a packed ``(shots, n_words)`` batch.

    ``words`` uses the :mod:`~repro.decoders.kernels.plane` layout over the
    graph's detectors.  ``decoder`` needs ``graph`` and ``decode``.  With
    ``dedup=False`` this is the reference per-shot loop.  Otherwise
    identical rows are grouped on the words, and the distinct rows go to
    one ``decode_rows(rows)`` call: the bound kernel (see
    :mod:`repro.decoders.kernels`) — reading the words directly when it has
    a ``decode_packed`` method — else the scalar per-row pass.  Only kernels
    that take bool rows get the distinct rows unpacked.
    """
    from . import kernels  # deferred: kernels imports decoder classes

    words = np.asarray(words, dtype=np.uint64)
    num_detectors = decoder.graph.num_detectors
    width = plane.n_words(num_detectors)
    if words.ndim != 2 or words.shape[1] != width:
        raise ValueError(
            f"expected (shots, {width}) detector words for {num_detectors} "
            f"graph detectors, got shape {words.shape}"
        )
    shots = words.shape[0]
    if stats is not None:
        stats.shots += shots
        stats.batches += 1
    if shots == 0:
        return np.zeros(0, dtype=np.uint64)

    if not dedup:
        det = plane.unpack_words(words, num_detectors)
        masks = np.zeros(shots, dtype=np.uint64)
        with obs.span("decode.kernel", lambda: {"rows": shots, "path": "per-shot"}):
            for s in range(shots):
                masks[s] = decoder.decode(det[s])
        if stats is not None:
            stats.distinct_syndromes += shots
            stats.decode_calls += shots
        return masks

    # one call for every distinct syndrome: a bound kernel, else the scalar
    # per-row pass
    args = {}
    decode_rows = kernels.bind(decoder)
    packed = getattr(decode_rows, "decode_packed", None)
    if packed is not None:
        decode_rows = packed
    if decode_rows is None:
        decode_rows = _scalar_decode_rows(decoder)
        args["path"] = "scalar"
    with obs.span("decode.dedup", lambda: {"shots": shots}):
        first, inverse = plane.dedup(words)
        distinct = words[first]
        if packed is None:
            distinct = plane.unpack_words(distinct, num_detectors)
    n = first.size
    args["rows"] = n
    if packed is not None:
        args["threads"] = kernels.cext.decode_threads(n)
    with obs.span("decode.kernel", lambda: args):
        row_masks = decode_rows(distinct)
    if stats is not None:
        stats.distinct_syndromes += n
        stats.decode_calls += n
    return np.asarray(row_masks, dtype=np.uint64)[inverse]


class BatchDecodingEngine:
    """A decoder plus dedup policy and statistics.

    The streaming LER pipeline creates one engine per run and feeds it every
    sampled batch; the statistics accumulate across batches.
    """

    def __init__(
        self,
        decoder,
        *,
        dedup: bool = True,
    ):
        self.decoder = decoder
        self.dedup = dedup
        self.stats = BatchDecodeStats()

    def decode_words(self, words: np.ndarray) -> np.ndarray:
        """Decode one packed batch to per-shot observable masks, updating statistics."""
        with obs.stopwatch() as sw:
            out = decode_words(self.decoder, words, dedup=self.dedup, stats=self.stats)
        self.stats.decode_seconds += sw.seconds
        return out

    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        """Bool form of :meth:`decode_words`: ``(shots, nobs)`` predictions."""
        masks = self.decode_words(_pack_rows(self.decoder, detectors))
        return expand_obs_masks(masks, self.decoder.graph.num_observables)
