"""Sparse GF(2) DEM sampler, kept as a test oracle.

This is the sampler :class:`repro.stab.DemSampler` used before it wrote
straight into packed ``uint64`` detector words.  It makes the same rng
draws in the same order (``poisson``, then ``integers``, then the fair-coin
``random``), keeps the odd-multiplicity (shot, error) cells with
``np.unique``, builds a CSR error matrix and multiplies it into the
detector and observable signature matrices mod 2.

It shares no code with the packed sampler, which makes it an independent
reference for the bit-identity tests in ``test_sampler.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.stab.dem import DetectorErrorModel


class OracleSampler:
    """Samples bool detector and observable data for a fixed error model."""

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        self.probabilities = np.array([e.probability for e in dem.errors], dtype=np.float64)
        self._det_matrix = _signature_matrix(
            [e.detectors for e in dem.errors], dem.num_detectors
        )
        self._obs_matrix = _signature_matrix(
            [e.observables for e in dem.errors], dem.num_observables
        )
        heavy = self.probabilities > 0.5
        self._det_offset = np.zeros(dem.num_detectors, dtype=bool)
        self._obs_offset = np.zeros(dem.num_observables, dtype=bool)
        for i in np.flatnonzero(heavy):
            for d in dem.errors[i].detectors:
                self._det_offset[d] ^= True
            for o in dem.errors[i].observables:
                self._obs_offset[o] ^= True
        effective = np.where(heavy, 1.0 - self.probabilities, self.probabilities)
        self._fair = np.flatnonzero(effective == 0.5)
        effective = np.where(effective == 0.5, 0.0, effective)
        effective = np.clip(effective, 0.0, 0.5 - 1e-12)
        self._rates = -0.5 * np.log1p(-2.0 * effective)

    @property
    def num_errors(self) -> int:
        return int(self.probabilities.size)

    def sample_batches(self, shots: int, rng: np.random.Generator, *, batch_size: int = 65536):
        """Yield ``(detectors, observables, errors)`` per batch of shots."""
        remaining = shots
        while remaining > 0:
            batch = min(batch_size, remaining)
            err = self._sample_error_matrix(batch, rng)
            det = _gf2_product(err, self._det_matrix) ^ self._det_offset
            obs = _gf2_product(err, self._obs_matrix) ^ self._obs_offset
            yield det, obs, err
            remaining -= batch

    def _sample_error_matrix(self, shots: int, rng: np.random.Generator) -> sp.csr_matrix:
        nerr = self.num_errors
        counts = rng.poisson(shots * self._rates)
        total = int(counts.sum())
        row_parts, col_parts = [], []
        if total:
            cols = np.repeat(np.arange(nerr, dtype=np.int64), counts)
            row_draws = rng.integers(0, shots, size=total, dtype=np.int64)
            # keep only odd-multiplicity (shot, error) pairs: duplicate darts cancel
            key = row_draws * nerr + cols
            uniq, mult = np.unique(key, return_counts=True)
            kept = uniq[(mult % 2) == 1]
            row_parts.append(kept // nerr)
            col_parts.append(kept % nerr)
        if self._fair.size:
            flips = rng.random((shots, self._fair.size)) < 0.5
            frows, fcols = np.nonzero(flips)
            row_parts.append(frows.astype(np.int64))
            col_parts.append(self._fair[fcols])
        if not row_parts:
            return sp.csr_matrix((shots, nerr), dtype=np.uint8)
        rows = np.concatenate(row_parts)
        all_cols = np.concatenate(col_parts)
        data = np.ones(rows.size, dtype=np.uint8)
        return sp.csr_matrix((data, (rows, all_cols)), shape=(shots, nerr), dtype=np.uint8)


def _signature_matrix(signatures, width: int) -> sp.csr_matrix:
    rows, cols = [], []
    for i, sig in enumerate(signatures):
        for s in sig:
            rows.append(i)
            cols.append(s)
    data = np.ones(len(rows), dtype=np.uint8)
    return sp.csr_matrix((data, (rows, cols)), shape=(len(signatures), width), dtype=np.uint8)


def _gf2_product(sample: sp.csr_matrix, signature: sp.csr_matrix) -> np.ndarray:
    if signature.shape[1] == 0:
        return np.zeros((sample.shape[0], 0), dtype=bool)
    prod = sample @ signature  # integer counts
    out = np.zeros((sample.shape[0], signature.shape[1]), dtype=bool)
    if prod.nnz:
        coo = prod.tocoo()
        odd = (coo.data % 2) == 1
        out[coo.row[odd], coo.col[odd]] = True
    return out
