"""Batch decoding engine: syndrome dedup, memo caching, shared decoder base.

At the physical error rates this project sweeps (p ~ 1e-3) most shots carry
an empty or tiny syndrome, so a 100k-shot batch contains only a few thousand
*distinct* detector rows.  The engine exploits that three ways:

* :class:`Decoder` — the shared base class of every decoder.  Its
  ``decode_batch`` packs the boolean detector rows (:func:`repro._util.pack_bits`),
  groups identical rows with ``np.unique(axis=0)``, decodes each distinct
  syndrome exactly once, and scatters the observable masks back over the
  batch with one vectorized bitmask->bool expansion
  (:func:`expand_obs_masks`).  Predictions are bit-identical to the
  per-shot loop because every decoder here is deterministic.
* :class:`SyndromeCache` — an optional bounded LRU memo from packed syndrome
  bytes to observable mask that persists *across* batches, so a streaming
  pipeline pays for each recurring syndrome once per sweep, not once per
  batch.
* :class:`BatchDecodingEngine` — wraps a decoder with dedup + cache and
  tracks throughput statistics (:class:`BatchDecodeStats`): shots, distinct
  syndromes, cache hits, decode calls and wall-clock decode time.
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

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import obs
from .._util import pack_bits, unpack_bits

__all__ = [
    "Decoder",
    "SyndromeCache",
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


class SyndromeCache:
    """Bounded LRU memo: packed syndrome bytes -> observable bitmask."""

    def __init__(self, max_entries: int = 1 << 16):
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._table: OrderedDict[bytes, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: bytes) -> tuple[bool, int]:
        """``(hit, mask)``; a hit refreshes the entry's recency."""
        mask = self._table.get(key)
        if mask is None:
            self.misses += 1
            return False, 0
        self._table.move_to_end(key)
        self.hits += 1
        return True, mask

    def put(self, key: bytes, mask: int) -> None:
        """Insert/refresh an entry, evicting the least recently used on overflow."""
        self._table[key] = mask
        self._table.move_to_end(key)
        while len(self._table) > self.max_entries:
            self._table.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._table.clear()


@dataclass
class BatchDecodeStats:
    """Aggregate throughput counters for one engine (or one sweep)."""

    shots: int = 0
    batches: int = 0
    distinct_syndromes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    decode_calls: int = 0
    decode_seconds: float = 0.0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of shots whose decode was avoided by grouping/memoization."""
        return 1.0 - self.decode_calls / self.shots if self.shots else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Memo-cache hit rate over the distinct syndromes that consulted it."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

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
    #: by the dedup path (when no memo cache is attached) so a subclass can
    #: vectorize across the whole distinct-syndrome set — e.g. the
    #: predecoder's batched local pass.
    _decode_rows = None

    #: set False by subclasses whose per-decode bookkeeping (e.g. offload
    #: statistics weighted by multiplicity) would be silently skipped on a
    #: memo-cache hit; the dedup path then ignores any cache it was given
    supports_syndrome_cache = True

    def decode_batch(
        self,
        detectors: np.ndarray,
        *,
        dedup: bool = True,
        cache: SyndromeCache | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Decode ``(shots, num_detectors)`` outcomes to ``(shots, nobs)`` bools.

        ``backend`` names a decode-kernel backend (:mod:`repro.decoders.kernels`);
        None resolves ``REPRO_DECODE_BACKEND`` and then ``auto``.  Backends
        are bit-identical — they change wall time, never predictions.
        """
        return decode_batch_dedup(self, detectors, dedup=dedup, cache=cache, backend=backend)


def decode_batch_dedup(
    decoder,
    detectors: np.ndarray,
    *,
    dedup: bool = True,
    cache: SyndromeCache | None = None,
    stats: BatchDecodeStats | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Dedup-and-scatter batch decode around any :class:`Decoder`-like object.

    ``decoder`` needs ``graph.num_observables`` and ``_decode_one`` (or plain
    ``decode``).  With ``dedup=False`` this is the reference per-shot loop.
    ``backend`` selects a decode-kernel backend for the distinct-syndrome
    matrix (see :mod:`repro.decoders.kernels`); when the resolved backend has
    no kernel for this decoder, the scalar pass runs unchanged.
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
    if cache is not None and not getattr(decoder, "supports_syndrome_cache", True):
        # cache hits would skip the decoder's per-shot bookkeeping (e.g. the
        # predecoder's multiplicity-weighted offload statistics); dropping
        # the cache here also routes such decoders onto the plain whole-
        # matrix kernel path below, never the kernel+cache partition
        cache = None
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

    decode_rows = kernels.bind(decoder, backend)
    if decode_rows is None and cache is None:
        decode_rows = getattr(decoder, "_decode_rows", None)
    if decode_rows is not None and cache is not None:
        # backend kernel + memo cache: serve the cached distinct rows, decode
        # the misses in one whole-matrix call, remember them.  Counters match
        # the scalar cached pass (hits/misses per distinct row, one decode
        # call per miss); only the LRU refresh order differs, because every
        # lookup happens before the first insert.
        n = uniq.shape[0]
        row_masks = np.zeros(n, dtype=np.uint64)
        miss = []
        with obs.span("decode.cache", lambda: {"rows": n}):
            for i in range(n):
                hit, mask = cache.get(uniq[i].tobytes())
                if hit:
                    row_masks[i] = mask
                else:
                    miss.append(i)
        if miss:
            with obs.span("decode.kernel", lambda: {"rows": len(miss)}):
                decoded = np.asarray(
                    decode_rows(rows[miss], [counts[i] for i in miss]),
                    dtype=np.uint64,
                )
            row_masks[miss] = decoded
            for j, i in enumerate(miss):
                cache.put(uniq[i].tobytes(), int(decoded[j]))
        if stats is not None:
            stats.distinct_syndromes += n
            stats.cache_hits += n - len(miss)
            stats.cache_misses += len(miss)
            stats.decode_calls += len(miss)
        return expand_obs_masks(row_masks, nobs)[inverse]
    if decode_rows is not None:
        # whole-matrix fast path (a backend kernel, or the decoder's own
        # ``_decode_rows`` hook such as the vectorized predecoder): one call
        # for every distinct syndrome, no per-row python dispatch
        with obs.span("decode.kernel", lambda: {"rows": int(uniq.shape[0])}):
            row_masks = decode_rows(rows, counts)
        if stats is not None:
            stats.distinct_syndromes += uniq.shape[0]
            stats.decode_calls += uniq.shape[0]
        return expand_obs_masks(np.asarray(row_masks, dtype=np.uint64), nobs)[inverse]
    decode_defects = getattr(decoder, "_decode_one_defects", None)
    if decode_defects is not None:
        # one vectorized nonzero for every distinct row instead of one per row
        rnz, cnz = np.nonzero(rows)
        starts = np.searchsorted(rnz, np.arange(uniq.shape[0] + 1)).tolist()
        defect_cols = cnz.tolist()
    masks: list[int] = []
    decoded = 0
    # the scalar fallback interleaves memo-cache lookups with per-row
    # decodes, so one span covers both (args record the row count)
    with obs.span("decode.kernel", lambda: {"rows": int(uniq.shape[0]), "path": "scalar"}):
        for i in range(uniq.shape[0]):
            if cache is not None:
                key = uniq[i].tobytes()
                hit, mask = cache.get(key)
                if hit:
                    if stats is not None:
                        stats.cache_hits += 1
                    masks.append(mask)
                    continue
                if stats is not None:
                    stats.cache_misses += 1
            if decode_defects is not None:
                mask = decode_defects(defect_cols[starts[i] : starts[i + 1]], counts[i])
            else:
                mask = decode_one(rows[i], counts[i])
            if cache is not None:
                cache.put(key, mask)
            decoded += 1
            masks.append(mask)
    if stats is not None:
        stats.decode_calls += decoded
        stats.distinct_syndromes += uniq.shape[0]
    return expand_obs_masks(np.array(masks, dtype=np.uint64), nobs)[inverse]


class BatchDecodingEngine:
    """A decoder plus dedup policy, cross-batch memo cache, and statistics.

    The streaming LER pipeline creates one engine per configuration and feeds
    it every sampled batch; the cache (when enabled) carries recurring
    syndromes across batch boundaries.
    """

    def __init__(
        self,
        decoder,
        *,
        dedup: bool = True,
        cache_size: int = 0,
        cache: SyndromeCache | None = None,
        backend: str | None = None,
    ):
        self.decoder = decoder
        self.dedup = dedup
        #: decode-kernel backend name (None: REPRO_DECODE_BACKEND, then auto)
        self.backend = backend
        # the memo cache only exists on the dedup path; the per-shot
        # reference loop must stay a true per-shot loop.  An explicit
        # ``cache`` instance overrides ``cache_size`` — sweep orchestration
        # passes one shared per-configuration-family cache so recurring
        # syndromes persist across sweep points, not just across batches.
        if not dedup:
            self.cache = None
        elif cache is not None:
            self.cache = cache
        else:
            self.cache = SyndromeCache(cache_size) if cache_size > 0 else None
        self.stats = BatchDecodeStats()

    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        """Decode one batch through the engine, updating cache and statistics."""
        with obs.stopwatch() as sw:
            out = decode_batch_dedup(
                self.decoder,
                detectors,
                dedup=self.dedup,
                cache=self.cache,
                stats=self.stats,
                backend=self.backend,
            )
        self.stats.decode_seconds += sw.seconds
        return out
