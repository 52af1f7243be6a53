"""Batch decoding engine: syndrome dedup and the shared decoder base.

At the physical error rates this project sweeps (p ~ 1e-3) most shots carry
an empty or tiny syndrome, so a 100k-shot batch contains only a few thousand
*distinct* detector rows.  The engine decodes each of them once:

* :class:`Decoder` — the shared base class of every decoder.  Its
  ``decode_batch`` has one shape: pack the boolean detector rows
  (:func:`repro._util.pack_bits`), group identical rows, decode the distinct
  rows in one ``decode_rows(rows, counts)`` call (a backend kernel, the
  decoder's ``_decode_rows`` hook, or the scalar per-row pass), and scatter
  the observable masks back over the batch with one vectorized
  bitmask->bool expansion (:func:`expand_obs_masks`).  Predictions are
  bit-identical to the per-shot loop because every decoder here is
  deterministic.
* :class:`BatchDecodingEngine` — wraps a decoder with a dedup policy and
  tracks throughput statistics (:class:`BatchDecodeStats`): shots, distinct
  syndromes, decode calls and wall-clock decode time.  There is no memo
  across batches: each batch decodes its own distinct rows, so the counters
  depend only on the sampled shots.
* decode-kernel **backends** (:mod:`repro.decoders.kernels`) — the distinct-
  syndrome matrix is decoded through a pluggable backend: ``python`` runs
  the scalar per-syndrome pass, ``numpy`` binds whole-matrix kernels for
  every stock decoder family (batched union-find, batched predecode with
  matrix-form residual handoff, the hierarchical LUT row-split, and the
  shared-Dijkstra MWPM kernel), ``cext`` swaps the union-find kernel for a
  scalar C one built with the system compiler.  All backends are bit-identical —
  including decoder-side statistics such as
  :class:`~repro.decoders.predecoder.PredecodeStats`; selection:
  ``backend=`` argument > ``REPRO_DECODE_BACKEND`` > ``auto``.

Decoder subclasses implement ``decode(detectors) -> int`` (an observable
bitmask, limited to 64 observables by the matching graph) and inherit the
fast batch path; a subclass that needs per-shot bookkeeping weighted by
duplicate multiplicity (e.g. the predecoder's offload statistics) overrides
:meth:`Decoder._decode_one` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .._util import pack_bits, unpack_bits

__all__ = [
    "Decoder",
    "BatchDecodeStats",
    "BatchDecodingEngine",
    "expand_obs_masks",
    "decode_batch_dedup",
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


def _unique_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed rows and per-shot inverse indices.

    Equivalent grouping to ``np.unique(packed, axis=0, return_inverse=True)``
    (group order may differ) but several times faster: rows are padded to
    whole ``uint64`` words and sorted with one ``np.lexsort`` instead of the
    generic void-dtype comparison sort.
    """
    n, width = packed.shape
    if n == 1 or width == 0:
        return packed[:1], np.zeros(n, dtype=np.int64)
    pad = (-width) % 8
    if pad:
        padded = np.zeros((n, width + pad), dtype=np.uint8)
        padded[:, :width] = packed
    else:
        padded = np.ascontiguousarray(packed)
    words = padded.view(np.uint64)
    order = np.lexsort(tuple(words[:, i] for i in range(words.shape[1] - 1, -1, -1)))
    sorted_words = words[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(sorted_words[1:] != sorted_words[:-1], axis=1, out=starts[1:])
    group_of_sorted = np.cumsum(starts) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = group_of_sorted
    return packed[order[starts]], inverse


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

    def _decode_one(self, detectors: np.ndarray, multiplicity: int = 1) -> int:
        """Decode one distinct syndrome standing for ``multiplicity`` shots.

        The dedup path calls this instead of :meth:`decode` so subclasses
        that keep per-shot statistics can weight them by multiplicity.
        """
        return self.decode(detectors)

    #: optional fast path: ``_decode_one_defects(defects, multiplicity) -> mask``
    #: taking a python list of defect indices.  When a subclass provides it,
    #: the dedup path extracts all defect lists in one vectorized ``nonzero``
    #: instead of one numpy call per distinct syndrome.
    _decode_one_defects = None

    #: optional whole-matrix fast path: ``_decode_rows(rows, counts) -> masks``
    #: taking the full ``(distinct, num_detectors)`` bool matrix and per-row
    #: shot multiplicities, returning one observable bitmask per row.  Used
    #: by the dedup path when no backend kernel is bound, so a subclass can
    #: vectorize across the whole distinct-syndrome set — e.g. the
    #: predecoder's batched local pass.
    _decode_rows = None

    def decode_batch(
        self,
        detectors: np.ndarray,
        *,
        dedup: bool = True,
        backend: str | None = None,
    ) -> np.ndarray:
        """Decode ``(shots, num_detectors)`` outcomes to ``(shots, nobs)`` bools.

        ``backend`` names a decode-kernel backend (:mod:`repro.decoders.kernels`);
        None resolves ``REPRO_DECODE_BACKEND`` and then ``auto``.  Backends
        are bit-identical — they change wall time, never predictions.
        """
        return decode_batch_dedup(self, detectors, dedup=dedup, backend=backend)


def _scalar_decode_rows(decoder, decode_one):
    """The per-row reference pass, shaped like a kernel: ``(rows, counts) -> masks``."""
    decode_defects = getattr(decoder, "_decode_one_defects", None)

    def decode_rows(rows: np.ndarray, counts: list[int]) -> list[int]:
        if decode_defects is None:
            return [decode_one(rows[i], c) for i, c in enumerate(counts)]
        # one vectorized nonzero for every distinct row instead of one per row
        rnz, cnz = np.nonzero(rows)
        starts = np.searchsorted(rnz, np.arange(len(counts) + 1)).tolist()
        cols = cnz.tolist()
        return [
            decode_defects(cols[starts[i] : starts[i + 1]], c)
            for i, c in enumerate(counts)
        ]

    return decode_rows


def decode_batch_dedup(
    decoder,
    detectors: np.ndarray,
    *,
    dedup: bool = True,
    stats: BatchDecodeStats | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Dedup-and-scatter batch decode around any :class:`Decoder`-like object.

    ``decoder`` needs ``graph.num_observables`` and ``_decode_one`` (or plain
    ``decode``).  With ``dedup=False`` this is the reference per-shot loop.
    ``backend`` selects a decode-kernel backend for the distinct-syndrome
    matrix (see :mod:`repro.decoders.kernels`); when the resolved backend has
    no kernel for this decoder, the decoder's ``_decode_rows`` hook or else
    the scalar per-row pass decodes the same matrix.
    """
    det = np.asarray(detectors, dtype=bool)
    if det.ndim != 2:
        raise ValueError(f"expected a (shots, num_detectors) array, got shape {det.shape}")
    if det.shape[1] != decoder.graph.num_detectors:
        raise ValueError(
            f"detector columns ({det.shape[1]}) != graph detectors "
            f"({decoder.graph.num_detectors}); project full-DEM samples first "
            "(e.g. pipeline.mask_detectors)"
        )
    shots = det.shape[0]
    nobs = decoder.graph.num_observables
    decode_one = getattr(decoder, "_decode_one", None) or (
        lambda row, multiplicity=1: decoder.decode(row)
    )
    if stats is not None:
        stats.shots += shots
        stats.batches += 1
    if shots == 0:
        return np.zeros((0, nobs), dtype=bool)

    if not dedup:
        masks = np.zeros(shots, dtype=np.uint64)
        with obs.span("decode.kernel", lambda: {"rows": shots, "path": "per-shot"}):
            for s in range(shots):
                masks[s] = decode_one(det[s], 1)
        if stats is not None:
            stats.distinct_syndromes += shots
            stats.decode_calls += shots
        return expand_obs_masks(masks, nobs)

    with obs.span("decode.dedup", lambda: {"shots": shots}):
        packed = pack_bits(det)
        uniq, inverse = _unique_rows(packed)
        counts = np.bincount(inverse, minlength=uniq.shape[0]).tolist()
        rows = unpack_bits(uniq, det.shape[1])
    from . import kernels  # deferred: kernels imports decoder classes

    # one call for every distinct syndrome: a backend kernel, else the
    # decoder's own whole-matrix hook (e.g. the vectorized predecoder), else
    # the scalar per-row pass
    n = len(counts)
    args = {"rows": n}
    decode_rows = kernels.bind(decoder, backend)
    if decode_rows is None:
        decode_rows = getattr(decoder, "_decode_rows", None)
    if decode_rows is None:
        decode_rows = _scalar_decode_rows(decoder, decode_one)
        args["path"] = "scalar"
    with obs.span("decode.kernel", lambda: args):
        row_masks = decode_rows(rows, counts)
    if stats is not None:
        stats.distinct_syndromes += n
        stats.decode_calls += n
    return expand_obs_masks(np.asarray(row_masks, dtype=np.uint64), nobs)[inverse]


class BatchDecodingEngine:
    """A decoder plus dedup policy and statistics.

    The streaming LER pipeline creates one engine per configuration and feeds
    it every sampled batch; the statistics accumulate across batches.
    """

    def __init__(
        self,
        decoder,
        *,
        dedup: bool = True,
        backend: str | None = None,
    ):
        self.decoder = decoder
        self.dedup = dedup
        #: decode-kernel backend name (None: REPRO_DECODE_BACKEND, then auto)
        self.backend = backend
        self.stats = BatchDecodeStats()

    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        """Decode one batch through the engine, updating its statistics."""
        with obs.stopwatch() as sw:
            out = decode_batch_dedup(
                self.decoder,
                detectors,
                dedup=self.dedup,
                stats=self.stats,
                backend=self.backend,
            )
        self.stats.decode_seconds += sw.seconds
        return out
