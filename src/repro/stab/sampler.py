"""Fast Monte-Carlo sampling directly from a detector error model.

Given a :class:`DetectorErrorModel` this module samples detector/observable
outcome bits for many shots straight into the packed syndrome data plane
(:mod:`repro.decoders.kernels.plane`): each shot is a row of ``uint64``
words, detector ``d`` in word ``d // 64``, bit ``d % 64``.  The packed
signatures are built from the model's detector and observable CSR lists
(``docs/DECODERS.md``, "DEM layout"), never from per-error objects.

The per-error Bernoulli draw is *exact* without materializing a dense
(shots x errors) mask: for error probability ``p`` we throw
``Poisson(shots * lambda)`` darts uniformly over the shots with
``lambda = -ln(1 - 2p) / 2``.  Each (shot, error) cell's dart count is then
i.i.d. ``Poisson(lambda)``, whose odd-parity probability is exactly ``p``.
Every dart XORs its error's pre-packed detector and observable signature
into its shot's words, so darts landing on one cell an even number of times
cancel by themselves.  Errors with ``p > 1/2`` are folded into a
deterministic flip (a packed offset XORed into every shot) plus a residual
``1 - p`` draw; errors with ``p == 1/2`` exactly (fair coins, where the dart
rate diverges) are sampled as genuine Bernoulli(1/2) flips and XORed in the
same way.

:meth:`DemSampler.packed_batches` yields the words batch by batch, which is
what the LER pipeline decodes.  :meth:`DemSampler.sample` and
:meth:`DemSampler.sample_batches` are thin bool unpacks of the same words
(same rng draws); :meth:`DemSampler.projected` restricts the detector
signatures to a subset of detectors (a matching graph's basis) once, so the
pipeline never materializes full-width rows.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .._util import resolve_rng
from ..decoders.kernels import plane
from .dem import DetectorErrorModel

__all__ = ["DemSampler"]


def _incidence(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A CSR index list as parallel ``(error, index)`` arrays."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)), indices


class DemSampler:
    """Samples detector and observable data for a fixed error model."""

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        self.num_detectors = dem.num_detectors
        self.num_observables = dem.num_observables
        self.probabilities = np.array(dem.probabilities, dtype=np.float64)
        nerr = self.probabilities.size
        self._det_incidence = _incidence(dem.det_indptr, dem.det_indices)
        self._det_sig = plane.Signatures(*self._det_incidence, nerr, dem.num_detectors)
        self._obs_sig = plane.Signatures(
            *_incidence(dem.obs_indptr, dem.obs_indices), nerr, dem.num_observables
        )
        # p > 1/2 folds into a deterministic flip plus a residual (1-p) draw
        heavy = self.probabilities > 0.5
        self._heavy = np.flatnonzero(heavy)
        self._det_offset = self._det_sig.combined(self._heavy)
        self._obs_offset = self._obs_sig.combined(self._heavy)
        effective = np.where(heavy, 1.0 - self.probabilities, self.probabilities)
        # p == 1/2 exactly is a fair coin: the dart rate -ln(1-2p)/2 diverges,
        # so those mechanisms are excluded here and sampled as Bernoulli(1/2)
        # flips in _draw instead of being clipped (which would bias them and
        # cost ~14 darts per shot each).
        self._fair = np.flatnonzero(effective == 0.5)
        effective = np.where(effective == 0.5, 0.0, effective)
        effective = np.clip(effective, 0.0, 0.5 - 1e-12)
        self._rates = -0.5 * np.log1p(-2.0 * effective)

    @property
    def num_errors(self) -> int:
        return int(self.probabilities.size)

    def projected(self, keep: np.ndarray) -> "DemSampler":
        """This sampler restricted to the detectors where ``keep`` is True.

        The rng draws are unchanged; only the detector signatures shrink to
        ``keep.sum()`` columns, in order.  ``dem`` still names the full model.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.num_detectors,):
            raise ValueError(
                f"expected a ({self.num_detectors},) detector mask, got shape {keep.shape}"
            )
        if keep.all():
            return self
        out = copy.copy(self)
        errors, cols = self._det_incidence
        kept = keep[cols]
        index = np.cumsum(keep) - 1
        out.num_detectors = int(keep.sum())
        out._det_incidence = (errors[kept], index[cols[kept]])
        out._det_sig = plane.Signatures(*out._det_incidence, self.num_errors, out.num_detectors)
        out._det_offset = out._det_sig.combined(self._heavy)
        return out

    def sample(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
        *,
        batch_size: int = 65536,
        return_errors: bool = False,
    ):
        """Sample ``shots`` outcomes (``shots == 0`` yields empty arrays).

        Returns ``(detectors, observables)`` boolean arrays of shapes
        ``(shots, num_detectors)`` / ``(shots, num_observables)``.  With
        ``return_errors=True`` a third item gives the sampled error matrix
        as a ``scipy.sparse.csr_matrix``.
        """
        det_parts, obs_parts, err_parts = [], [], []
        for part in self.sample_batches(
            shots, rng, batch_size=batch_size, return_errors=return_errors
        ):
            det_parts.append(part[0])
            obs_parts.append(part[1])
            if return_errors:
                err_parts.append(part[2])
        if det_parts:
            det = np.concatenate(det_parts, axis=0)
            obs = np.concatenate(obs_parts, axis=0)
        else:  # shots == 0: correctly shaped empties instead of concatenate([])
            det = np.zeros((0, self.num_detectors), dtype=bool)
            obs = np.zeros((0, self.num_observables), dtype=bool)
        if return_errors:
            err = (
                sp.vstack(err_parts).tocsr()
                if err_parts
                else sp.csr_matrix((0, self.num_errors), dtype=np.uint8)
            )
            return det, obs, err
        return det, obs

    def sample_batches(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
        *,
        batch_size: int = 65536,
        return_errors: bool = False,
    ):
        """Yield ``(detectors, observables[, errors])`` per batch of shots.

        Streaming form of :meth:`sample`: memory stays bounded by
        ``batch_size`` regardless of the total shot count, and consuming the
        generator draws from ``rng`` in exactly the same order as
        :meth:`sample` with the same ``batch_size``.  Each batch is the bool
        unpack of what :meth:`packed_batches` yields for the same draws.
        """
        for batch, draws in self._draws(shots, rng, batch_size):
            det_words, obs_words = self._pack(batch, draws)
            det = plane.unpack_words(det_words, self.num_detectors)
            obs = plane.unpack_words(obs_words, self.num_observables)
            yield (det, obs, self._error_matrix(batch, draws)) if return_errors else (det, obs)

    def packed_batches(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
        *,
        batch_size: int = 65536,
    ):
        """Yield ``(detector_words, observable_words)`` per batch of shots.

        ``uint64`` matrices of shapes ``(batch, n_words(num_detectors))`` and
        ``(batch, n_words(num_observables))`` (:mod:`~repro.decoders.kernels.plane`
        layout), drawn from ``rng`` exactly as :meth:`sample_batches` draws.
        """
        for batch, draws in self._draws(shots, rng, batch_size):
            yield self._pack(batch, draws)

    def _draws(self, shots: int, rng, batch_size: int):
        if shots < 0:
            raise ValueError("shots must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        rng = resolve_rng(rng)
        remaining = shots
        while remaining > 0:
            batch = min(batch_size, remaining)
            yield batch, self._draw(batch, rng)
            remaining -= batch

    def _draw(self, shots: int, rng: np.random.Generator):
        """One batch's random draws: ``(dart counts, dart shots, fair flips)``.

        ``counts[e]`` darts of error ``e`` land on the shots
        ``rows[sum(counts[:e]):sum(counts[:e + 1])]``; ``flips`` is the
        ``(shots, fair coins)`` Bernoulli(1/2) matrix, or None.
        """
        counts = rng.poisson(shots * self._rates)
        total = int(counts.sum())
        rows = np.zeros(0, dtype=np.int64)
        if total:
            rows = rng.integers(0, shots, size=total, dtype=np.int64)
        flips = None
        if self._fair.size:
            flips = rng.random((shots, self._fair.size)) < 0.5
        return counts, rows, flips

    def _pack(self, shots: int, draws) -> tuple[np.ndarray, np.ndarray]:
        """XOR one batch's darts, fair flips and heavy offsets into words."""
        counts, rows, flips = draws
        fair = None
        if flips is not None:
            # fair coins as darts: one per flipped (shot, coin), grouped by coin
            coin, shot = np.nonzero(flips.T)
            fair_counts = np.zeros(self.num_errors, dtype=np.int64)
            fair_counts[self._fair] = np.bincount(coin, minlength=self._fair.size)
            fair = (fair_counts, shot)
        planes = []
        for sig, offset in ((self._det_sig, self._det_offset), (self._obs_sig, self._obs_offset)):
            words = np.zeros((shots, sig.n_words), dtype=np.uint64)
            plane.xor_darts(sig, counts, rows, words)
            if fair is not None:
                plane.xor_darts(sig, *fair, words)
            if offset.any():
                words ^= offset
            planes.append(words)
        return planes[0], planes[1]

    def _error_matrix(self, shots: int, draws) -> sp.csr_matrix:
        """Sparse (shots x errors) GF(2) sample of which error hit which shot."""
        counts, rows, flips = draws
        cols = np.repeat(np.arange(self.num_errors, dtype=np.int64), counts)
        if flips is not None:
            frows, fcols = np.nonzero(flips)
            rows = np.concatenate([rows, frows])
            cols = np.concatenate([cols, self._fair[fcols]])
        data = np.ones(rows.size, dtype=np.uint8)
        err = sp.csr_matrix((data, (rows, cols)), shape=(shots, self.num_errors), dtype=np.uint8)
        err.data %= 2  # duplicate darts were summed: keep odd multiplicities
        err.eliminate_zeros()
        return err
