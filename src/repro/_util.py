"""Small shared utilities: RNG handling, CSR index lists, probability algebra.

The probability algebra comes in two forms: scalar (:func:`xor_probability`,
:func:`combine_flip_probabilities`) and vectorised over runs of a sorted
array (:func:`xor_runs`, :func:`combine_flip_runs`), which repeat the
scalar float operations in the same order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "resolve_rng",
    "xor_probability",
    "combine_flip_probabilities",
    "run_starts",
    "xor_runs",
    "combine_flip_runs",
    "csr_indptr",
    "csr_take",
    "csr_tuples",
]


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return a numpy Generator from a Generator, a seed, or None (fresh entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def xor_probability(p: float, q: float) -> float:
    """Probability that exactly one of two independent events occurs."""
    return p * (1.0 - q) + q * (1.0 - p)


def combine_flip_probabilities(probs) -> float:
    """Probability that an odd number of independent flips occur.

    Uses the identity P(odd) = (1 - prod(1 - 2 p_i)) / 2.
    """
    acc = 1.0
    for p in probs:
        acc *= 1.0 - 2.0 * float(p)
    return (1.0 - acc) / 2.0


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive keys starts (rows, for 2-D ``keys``)."""
    change = keys[1:] != keys[:-1]
    if change.ndim > 1:
        change = change.any(axis=1)
    return np.flatnonzero(np.r_[True, change][: len(keys)])


def xor_runs(probs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`xor_probability` folded from ``0.0`` over each run of ``probs``.

    Run ``i`` is ``probs[starts[i]:starts[i + 1]]``.  Each run folds in
    order with the scalar float operations (a one-member run is its own
    probability), so every result equals the scalar loop's bit for bit.
    """
    sizes = np.diff(np.r_[starts, probs.size])
    acc = probs[starts].copy()
    for k in range(1, int(sizes.max(initial=1))):
        more = sizes > k
        p, q = acc[more], probs[starts[more] + k]
        acc[more] = p * (1.0 - q) + q * (1.0 - p)
    return acc


def combine_flip_runs(probs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`combine_flip_probabilities` of each run of ``probs``.

    Runs are as in :func:`xor_runs`; each run's factors multiply in order
    with the scalar float operations, so every result is bit-exact.
    """
    sizes = np.diff(np.r_[starts, probs.size])
    acc = 1.0 - 2.0 * probs[starts]
    for k in range(1, int(sizes.max(initial=1))):
        more = sizes > k
        acc[more] *= 1.0 - 2.0 * probs[starts[more] + k]
    return (1.0 - acc) / 2.0



def csr_indptr(lens) -> np.ndarray:
    """``int64`` row pointer of a CSR list whose rows have lengths ``lens``."""
    lens = np.asarray(lens, dtype=np.int64)
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr


def csr_take(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR list ``(indptr, indices)`` of ``rows`` (in that order)."""
    lens = indptr[rows + 1] - indptr[rows]
    out = csr_indptr(lens)
    src = np.repeat(indptr[rows] - out[:-1], lens) + np.arange(out[-1], dtype=np.int64)
    return out, indices[src]


def csr_tuples(indptr: np.ndarray, indices: np.ndarray) -> list[tuple]:
    """The rows of a CSR list as tuples of Python scalars."""
    flat, ptr = indices.tolist(), indptr.tolist()
    return [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])]
