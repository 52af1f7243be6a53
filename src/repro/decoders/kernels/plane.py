"""The packed syndrome data plane: detector rows as ``uint64`` words.

Every batch of syndromes lives as a row-major ``(shots, n_words(width))``
``uint64`` matrix: detector ``d`` is bit ``d % 64`` of word ``d // 64``, and
the padding bits past the last detector are always zero.  The sampler XORs
error signatures straight into these words (:func:`xor_darts`), the batch
engine groups identical rows without unpacking them (:func:`dedup`), and
the C union-find kernel decodes them as they are
(:meth:`~repro.decoders.kernels.cext.CextUnionFind.decode_packed`).  Only
the distinct rows handed to a bool-row kernel are ever unpacked.

Both helpers run in C (``plane_xor_darts`` and ``plane_dedup`` in
``uf.c``, loaded through :func:`repro.decoders.kernels.cext.library`) and
fall back to numpy when no compiler is available.  The two paths return
identical arrays: the numpy :func:`dedup` numbers its groups in order of
first occurrence, exactly like the C hash table.
"""

from __future__ import annotations

import numpy as np

from . import cext

__all__ = [
    "n_words",
    "pack_words",
    "unpack_words",
    "Signatures",
    "xor_darts",
    "dedup",
]


def n_words(width: int) -> int:
    """Number of ``uint64`` words holding ``width`` bits."""
    return -(-int(width) // 64)


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n, width)`` bool matrix into ``(n, n_words(width))`` words."""
    bits = np.asarray(bits, dtype=bool)
    n, width = bits.shape
    padded = np.zeros((n, 8 * n_words(width)), dtype=np.uint8)
    padded[:, : -(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return padded.view("<u8").astype(np.uint64, copy=False)


def unpack_words(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_words`: the first ``width`` bits of each row."""
    words = np.ascontiguousarray(words, dtype="<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=width, bitorder="little")
    return bits.view(bool)


class Signatures:
    """Sparse packed signatures: the nonzero words of each error's row.

    Error ``e`` flips ``bits[j]`` in word ``word[j]`` for ``j`` in
    ``ptr[e]:ptr[e + 1]`` of a ``width``-bit row.  Built vectorised from the
    flattened ``(error, bit)`` incidence, with repeated bits cancelling.
    """

    def __init__(self, errors: np.ndarray, cols: np.ndarray, num_errors: int, width: int):
        self.n_words = n_words(width)
        errors = np.asarray(errors, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        stride = max(self.n_words, 1)
        key = errors * stride + (cols >> 6)
        bit = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        order = np.argsort(key, kind="stable")
        key, bit = key[order], bit[order]
        if key.size:
            heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key = key[heads]
            bit = np.bitwise_xor.reduceat(bit, heads)
            keep = bit != 0
            key, bit = key[keep], bit[keep]
        err = key // stride
        self.word = np.ascontiguousarray(key % stride)
        self.bits = np.ascontiguousarray(bit, dtype=np.uint64)
        self.ptr = np.zeros(num_errors + 1, dtype=np.int64)
        np.cumsum(np.bincount(err, minlength=num_errors), out=self.ptr[1:])

    @property
    def num_errors(self) -> int:
        return self.ptr.size - 1

    def combined(self, errors: np.ndarray) -> np.ndarray:
        """XOR of the listed errors' rows, as one ``(n_words,)`` word row."""
        out = np.zeros((1, self.n_words), dtype=np.uint64)
        errors = np.asarray(errors, dtype=np.int64)
        xor_darts(
            self, np.bincount(errors, minlength=self.num_errors),
            np.zeros(errors.size, dtype=np.int64), out,
        )
        return out[0]


def xor_darts(
    sig: Signatures,
    counts: np.ndarray,
    rows: np.ndarray,
    out: np.ndarray,
) -> None:
    """XOR every dart's signature into ``out[row]``, in place.

    ``counts[e]`` darts belong to error ``e``; their rows are consecutive in
    ``rows``, error by error.  Repeated darts on one shot cancel.
    """
    if not out.flags.c_contiguous or out.dtype != np.uint64:
        raise ValueError("out must be a C-contiguous uint64 matrix")
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.size == 0 or sig.n_words == 0:
        return
    # the C loop trusts these bounds
    if counts.size != sig.num_errors or int(counts.sum()) != rows.size:
        raise ValueError("counts must give one dart count per error, summing to len(rows)")
    if rows.min() < 0 or rows.max() >= out.shape[0]:
        raise ValueError("dart rows must index rows of out")
    lib = cext.library()
    if lib is not None:
        lib.plane_xor_darts(
            counts.size, counts.ctypes.data, rows.ctypes.data, sig.ptr.ctypes.data,
            sig.word.ctypes.data, sig.bits.ctypes.data, sig.n_words, out.ctypes.data,
        )
        return
    # numpy: expand every dart to its nonzero words, XOR-reduce per (row, word)
    errs = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = sig.ptr[errs]
    lens = sig.ptr[errs + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return
    ends = np.cumsum(lens)
    entry = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lens), lens)
    key = np.repeat(rows, lens) * sig.n_words + sig.word[entry]
    order = np.argsort(key, kind="stable")
    key, bits = key[order], sig.bits[entry][order]
    heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    out.reshape(-1)[key[heads]] ^= np.bitwise_xor.reduceat(bits, heads)


def dedup(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group identical rows: ``(first, inverse)``.

    ``first[g]`` is the index of group ``g``'s first row and ``inverse[i]``
    row ``i``'s group; groups are numbered in order of first occurrence.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    n, width = words.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lib = cext.library()
    if lib is not None:
        inverse = np.empty(n, dtype=np.int64)
        first = np.empty(n, dtype=np.int64)
        groups = lib.plane_dedup(n, words.ctypes.data, width, inverse.ctypes.data,
                                 first.ctypes.data)
        if groups < 0:
            raise MemoryError("the C dedup could not allocate its hash table")
        return first[:groups].copy(), inverse
    if width == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(n, dtype=np.int64)
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=heads[1:])
    starts = np.flatnonzero(heads)
    # renumber the sorted groups by first occurrence, as the hash table does
    first = np.minimum.reduceat(order, starts)
    rank = np.argsort(first, kind="stable")
    label = np.empty(starts.size, dtype=np.int64)
    label[rank] = np.arange(starts.size, dtype=np.int64)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = label[np.cumsum(heads) - 1]
    return first[rank], inverse
