"""Detector error model (DEM) extraction.

A DEM is the list of independent error mechanisms of a noisy stabilizer
circuit, each with a probability, the set of detectors it flips, and the set
of logical observables it flips.  It is the interface between circuits and
decoders, exactly as in Stim.

:class:`DetectorErrorModel` is columnar, like Stim's flat error table: one
``float64`` probability per mechanism (row) and two ``int64`` CSR index
lists, detectors (``det_indptr``/``det_indices``) and observables
(``obs_indptr``/``obs_indices``), in the ``tptr``/``targets`` convention of
:func:`_encode`.  :func:`circuit_to_dem` and
:meth:`DetectorErrorModel.filtered` sort rows by ``(detectors,
observables)`` as tuples, with indices ascending within a row;
:meth:`DetectorErrorModel.from_errors` keeps the caller's rows as given.
:class:`DemError` is only the element type of the read-only
:attr:`DetectorErrorModel.errors` view, built on first use.

Extraction strategy: one backward pass over the circuit, as in Stim's error
analyser (Gidney, arXiv:2103.02202).  Each qubit carries two sensitivity
bitsets (detector ``j`` is bit ``j``, observable ``k`` is bit
``num_detectors + k``): the detectors and observables an X (resp. Z) flip
on that qubit *at the current point* would toggle.  Walking from the end:

* a measurement adds its record's bitset to the qubit's X sensitivity (Z
  for ``MX``); a reset (``R``/``RX``, and the reset half of ``MR``) clears
  both, since no earlier flip survives it;
* a Clifford applies the transpose of its forward frame rule, pairs of a
  two-qubit instruction in reverse order (they act sequentially);
* a noise channel reads off each Pauli case's signature as the XOR of its
  qubits' sensitivities.

Cases with identical signatures are merged with XOR-probability combination,
in forward enumeration order (instruction, target, case) so the combined
probabilities do not depend on the walk direction, and only the distinct
signatures are expanded into index rows.

Both walks read one flat encoding of the circuit (:func:`_encode`), built
with numpy from the circuit's columns (:meth:`Circuit.columns`) and never
from its instruction objects.  The walk runs in C (``dem_walk`` in ``uf.c``,
loaded through :func:`repro.decoders.kernels.cext.library` at call time):
``uint64`` sensitivity rows with live word ranges, a hash of the distinct
signatures, and a log of (signature, case) replayed in forward order with
the float operations of :func:`~repro._util.combine_flip_probabilities`.
Its CSR block of signature bits is split into the two index lists with
numpy.  Without a compiler the same walk runs in Python over big-int
bitsets (:func:`_walk_python`).  Both return ``==`` models
(``tests/test_dem_parity.py``); :func:`dem_walk` names the one that runs.
"""

from __future__ import annotations

import ctypes
import itertools
from dataclasses import dataclass, field

import numpy as np

from .._util import (
    combine_flip_probabilities,
    combine_flip_runs,
    csr_indptr,
    csr_take,
    csr_tuples,
    run_starts,
)
from .circuit import NAMES, OPCODES, Circuit
from .gates import GATES, GateKind, ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS

__all__ = ["DemError", "DetectorErrorModel", "circuit_to_dem", "dem_walk"]


@dataclass(frozen=True)
class DemError:
    """One independent error mechanism (an element of the ``errors`` view)."""

    probability: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]


@dataclass(eq=False)
class DetectorErrorModel:
    """Full error model of one circuit, one row per mechanism.

    Row ``i`` has probability ``probabilities[i]``, flips the detectors
    ``det_indices[det_indptr[i]:det_indptr[i + 1]]`` and the observables
    ``obs_indices[obs_indptr[i]:obs_indptr[i + 1]]``.  The arrays are
    shared with every consumer; none of them writes to them.
    """

    probabilities: np.ndarray
    det_indptr: np.ndarray
    det_indices: np.ndarray
    obs_indptr: np.ndarray
    obs_indices: np.ndarray
    num_detectors: int
    num_observables: int
    detector_coords: list[tuple[float, ...]]
    detector_basis: list[str | None]
    _errors: list[DemError] | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_errors(
        cls,
        errors,
        *,
        num_detectors: int,
        num_observables: int,
        detector_coords: list[tuple[float, ...]],
        detector_basis: list[str | None],
    ) -> "DetectorErrorModel":
        """A model with one row per :class:`DemError`, in the given order."""
        errors = list(errors)
        det_indptr, det_indices = _csr([e.detectors for e in errors])
        obs_indptr, obs_indices = _csr([e.observables for e in errors])
        return cls(
            np.array([e.probability for e in errors], dtype=np.float64),
            det_indptr,
            det_indices,
            obs_indptr,
            obs_indices,
            num_detectors=num_detectors,
            num_observables=num_observables,
            detector_coords=detector_coords,
            detector_basis=detector_basis,
        )

    @property
    def num_errors(self) -> int:
        """Number of rows (mechanisms), without building the ``errors`` view."""
        return int(self.probabilities.size)

    @property
    def errors(self) -> list[DemError]:
        """The rows as :class:`DemError` objects (built once, then cached)."""
        if self._errors is None:
            dets = csr_tuples(self.det_indptr, self.det_indices)
            obs = csr_tuples(self.obs_indptr, self.obs_indices)
            self._errors = [
                DemError(p, d, o) for p, d, o in zip(self.probabilities.tolist(), dets, obs)
            ]
        return self._errors

    def filtered(self, basis: str) -> "DetectorErrorModel":
        """Restrict to detectors tagged with ``basis`` (indices are remapped).

        Errors whose projected signature is empty *and* which flip no
        observable are dropped; others keep their observable flips.  Rows
        that project onto one signature are merged with
        :func:`~repro._util.combine_flip_probabilities` in their row order.
        """
        keep = np.array([b == basis for b in self.detector_basis], dtype=bool)
        remap = np.cumsum(keep, dtype=np.int64) - 1
        kept = keep[self.det_indices]
        det_rows = _row_ids(self.det_indptr)[kept]
        det_indices = remap[self.det_indices[kept]]
        if det_indices.size > 1:
            # a remap is monotone, so only hand-built rows can need this sort
            same_row = det_rows[1:] == det_rows[:-1]
            if (same_row & (det_indices[1:] < det_indices[:-1])).any():
                order = np.lexsort((det_indices, det_rows))
                det_indices = det_indices[order]
        counts = np.bincount(det_rows, minlength=self.num_errors)
        rows = np.flatnonzero((counts > 0) | (np.diff(self.obs_indptr) > 0))
        det = csr_take(csr_indptr(counts), det_indices, rows)
        obs = csr_take(self.obs_indptr, self.obs_indices, rows)
        order, heads, det, obs = _sorted_signatures(det, obs)
        n_kept = int(keep.sum())
        return DetectorErrorModel(
            combine_flip_runs(self.probabilities[rows][order], heads),
            *det,
            *obs,
            num_detectors=n_kept,
            num_observables=self.num_observables,
            detector_coords=[c for c, k in zip(self.detector_coords, keep) if k],
            detector_basis=[basis] * n_kept,
        )

    @property
    def total_error_probability(self) -> float:
        return float(sum(self.probabilities.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DetectorErrorModel({self.num_errors} errors, {self.num_detectors} detectors, "
            f"{self.num_observables} observables)"
        )


def _csr(rows) -> tuple[np.ndarray, np.ndarray]:
    """``int64`` ``(indptr, indices)`` of a sequence of index tuples."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    indptr = csr_indptr(lens)
    indices = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every index of a CSR list."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def _padded(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """CSR rows as a ``(rows, longest row)`` matrix padded with ``-1``."""
    lens = np.diff(indptr)
    out = np.full((lens.size, int(lens.max(initial=0))), -1, dtype=np.int64)
    rows = _row_ids(indptr)
    out[rows, np.arange(indices.size) - indptr[rows]] = indices
    return out


def _sorted_signatures(det, obs):
    """Rows in stable ``(detectors, observables)`` tuple order, one per signature.

    ``det`` and ``obs`` are ``(indptr, indices)`` pairs.  Returns ``(order,
    heads, det, obs)``: the sorting permutation, the positions in it where
    a new signature starts, and the CSR lists of those first rows.  A
    ``-1`` pad sorts a row before every row it is a prefix of, as tuple
    comparison does.
    """
    cols = np.hstack([_padded(*det), _padded(*obs)])
    if cols.shape[1] == 0:
        order = np.arange(cols.shape[0], dtype=np.int64)
    else:
        order = np.lexsort(cols[:, ::-1].T)  # last key is the primary one
    heads = run_starts(cols[order])
    firsts = order[heads]
    return order, heads, csr_take(*det, firsts), csr_take(*obs, firsts)


def circuit_to_dem(circuit: Circuit, *, min_probability: float = 0.0) -> DetectorErrorModel:
    """Extract the detector error model of ``circuit``.

    Args:
        circuit: the noisy circuit.
        min_probability: mechanisms with probability at or below this value
            are dropped after merging.
    """
    encoded = _encode(circuit)
    lib = _library()
    if lib is None:
        rows = _walk_python(encoded, circuit, min_probability)
    else:
        rows = _walk_cext(lib, encoded, circuit, min_probability)
    probs, *csr = rows
    # signatures are distinct after the walk's merge: every row heads its run
    order, _, det, obs = _sorted_signatures(csr[:2], csr[2:])
    return DetectorErrorModel(
        probs[order],
        *det,
        *obs,
        num_detectors=circuit.num_detectors,
        num_observables=circuit.num_observables,
        detector_coords=circuit.detector_coords,
        detector_basis=list(circuit.columns().basis),
    )


def dem_walk() -> str:
    """The walk :func:`circuit_to_dem` runs now: ``"cext"`` or ``"python"``."""
    return "python" if _library() is None else "cext"


def _library():
    from ..decoders.kernels import cext  # deferred: repro.decoders imports this module

    return cext.library()


def _split_rows(probs, ptr, bits, ndet: int, min_probability: float):
    """Rows above ``min_probability`` of a merged signature block.

    ``bits[ptr[g]:ptr[g + 1]]`` are signature ``g``'s ascending bits over
    the detectors, then the observables (bit ``ndet + k``).  Returns
    ``(probabilities, det_indptr, det_indices, obs_indptr, obs_indices)``.
    """
    is_det = bits < ndet
    det_indptr = csr_indptr(is_det)[ptr]
    rows = np.flatnonzero(probs > min_probability)
    det = csr_take(det_indptr, bits[is_det], rows)
    obs = csr_take(ptr - det_indptr, bits[~is_det] - ndet, rows)
    return probs[rows], *det, *obs


def _walk_cext(lib, encoded, circuit: Circuit, min_probability: float):
    """The backward walk in C: ``dem_walk`` over :func:`_encode`'s arrays."""
    ops, tptr, targets, cptr, cview, cprob, rec = encoded
    n_groups, n_bits = ctypes.c_int64(), ctypes.c_int64()
    block = lib.dem_walk(
        ops.size, ops.ctypes.data, tptr.ctypes.data, targets.ctypes.data,
        cptr.ctypes.data, cview.ctypes.data, cprob.ctypes.data,
        circuit.num_qubits, circuit.num_measurements,
        rec.ptr.ctypes.data, rec.word.ctypes.data, rec.bits.ctypes.data, rec.n_words,
        ctypes.byref(n_groups), ctypes.byref(n_bits),
    )
    if not block:
        raise MemoryError("the C DEM walk could not allocate its state")
    n, m = n_groups.value, n_bits.value
    try:
        raw = np.ctypeslib.as_array((ctypes.c_int64 * (2 * n + 1 + m)).from_address(block))
        probs = raw[:n].view(np.float64).copy()
        ptr = raw[n : 2 * n + 1].copy()
        bits = raw[2 * n + 1 :].copy()
    finally:
        lib.dem_free(block)
    return _split_rows(probs, ptr, bits, circuit.num_detectors, min_probability)


#: opcodes of ``dem_walk``'s instruction encoding, in ``uf.c``'s enum order
_OPCODES = {
    kind: i
    for i, kind in enumerate(
        ("h", "s", "sqrt_x", "cx", "cz", "swap", "r", "m", "mx", "mr", "noise1", "noise2")
    )
}
_MEASURES = [_OPCODES[k] for k in ("m", "mx", "mr")]


#: the simulation kind of every non-annotation gate (the Pauli gates are
#: ``skip``); the walk's opcodes and the frame oracle in ``tests/`` read it
_KIND_BY_NAME = {
    "I": "skip",
    "X": "skip",
    "Y": "skip",
    "Z": "skip",
    "H": "h",
    "S": "s",
    "S_DAG": "s",
    "SQRT_X": "sqrt_x",
    "SQRT_X_DAG": "sqrt_x",
    "CX": "cx",
    "CNOT": "cx",
    "CZ": "cz",
    "SWAP": "swap",
    "R": "r",
    "RZ": "r",
    "RX": "r",
    "M": "m",
    "MZ": "m",
    "MX": "mx",
    "MR": "mr",
    "X_ERROR": "x_error",
    "Y_ERROR": "y_error",
    "Z_ERROR": "z_error",
    "DEPOLARIZE1": "depolarize1",
    "DEPOLARIZE2": "depolarize2",
    "PAULI_CHANNEL_1": "pauli_channel_1",
}


def _walk_opcode(name: str) -> int:
    """``dem_walk``'s opcode of instruction ``name``; -1 for annotations and Pauli gates."""
    kind = GATES[name].kind
    if kind == GateKind.ANNOTATION:
        return -1
    if kind == GateKind.NOISE_1:
        return _OPCODES["noise1"]
    if kind == GateKind.NOISE_2:
        return _OPCODES["noise2"]
    return _OPCODES.get(_KIND_BY_NAME[name], -1)  # the Pauli gates are "skip"


#: the walk opcode of every circuit opcode; -1 drops the instruction
_WALK_OPS = np.array([_walk_opcode(name) for name in NAMES], dtype=np.int64)


def _pauli_index(x: bool, z: bool) -> int:
    """Index of a Pauli into a qubit's ``(0, X sens, Z sens, Y sens)`` view."""
    return int(x) | int(z) << 1


#: the 15 two-qubit cases as ``dem_walk`` view codes ``a | b << 2``, in order
_PAIR_VIEWS = [_pauli_index(*pa) | _pauli_index(*pb) << 2 for pa, pb in TWO_QUBIT_PAULIS]
#: view indices of the X, Y and Z cases of a one-qubit channel, in case order
_ONE_VIEWS = [_pauli_index(*ONE_QUBIT_PAULIS[pauli]) for pauli in "XYZ"]


def _encode(circuit: Circuit):
    """Flat forward-order arrays of ``circuit`` for the DEM walks.

    ``(ops, tptr, targets, cptr, cview, cprob, rec)``: one opcode per
    non-annotation, non-identity instruction, its targets in CSR form
    (``tptr``/``targets``), and its channel cases in CSR form
    (``cptr``/``cview``/``cprob``): the view index of a one-qubit case, or
    ``a | b << 2`` for a two-qubit case.  A two-qubit channel has its 15
    cases at ``p / 15`` each, ``DEPOLARIZE1`` its X, Y and Z cases at
    ``p / 3``, ``PAULI_CHANNEL_1`` the cases of nonzero probability and
    ``X_ERROR``/``Y_ERROR``/``Z_ERROR`` their one case.  ``rec`` holds each
    measurement record's signature as the nonzero words of a row over the
    detector and observable bits
    (:class:`~repro.decoders.kernels.plane.Signatures`).  Everything is read
    from :meth:`Circuit.columns`, never from instruction objects.
    """
    from ..decoders.kernels.plane import Signatures

    cols = circuit.columns()
    ndet = circuit.num_detectors
    walk_ops = _WALK_OPS[cols.ops]
    kept = np.flatnonzero(walk_ops >= 0)
    ops = walk_ops[kept]
    codes = cols.ops[kept]
    tptr, targets = csr_take(cols.tptr, cols.targets, kept)
    cptr, cview, cprob = _cases(codes, cols.aptr[kept], cols.args)

    det_rows = np.flatnonzero(cols.ops == OPCODES["DETECTOR"])
    det_ptr, det_recs = csr_take(cols.rptr, cols.recs, det_rows)
    obs_rows = np.flatnonzero(cols.ops == OPCODES["OBSERVABLE_INCLUDE"])
    obs_ptr, obs_recs = csr_take(cols.rptr, cols.recs, obs_rows)
    obs_index = cols.args[cols.aptr[obs_rows]].astype(np.int64)
    recs = np.concatenate([det_recs, obs_recs])
    bits = np.concatenate([_row_ids(det_ptr), ndet + np.repeat(obs_index, np.diff(obs_ptr))])

    # the C walk indexes its rows and records with these unchecked
    if targets.size and not 0 <= targets.min() <= targets.max() < circuit.num_qubits:
        raise ValueError("instruction targets exceed the circuit's qubit count")
    if np.diff(tptr)[np.isin(ops, _MEASURES)].sum() != circuit.num_measurements:
        raise ValueError("measurements disagree with the circuit's record count")
    rec = Signatures(recs, bits, circuit.num_measurements, ndet + circuit.num_observables)
    return ops, tptr, targets, cptr, cview, cprob, rec


def _cases(codes: np.ndarray, starts: np.ndarray, args: np.ndarray):
    """``(cptr, cview, cprob)`` of the instructions ``codes`` whose args start at ``starts``.

    Each row has 15 slots (a one-qubit channel uses the first three, in
    X, Y, Z order); the cases are the slots a row's channel fills, read
    row by row.
    """
    n = codes.size
    views = np.zeros((n, 15), dtype=np.int64)
    probs = np.zeros((n, 15), dtype=np.float64)
    used = np.zeros((n, 15), dtype=bool)

    views[:, :3] = _ONE_VIEWS
    pair = np.flatnonzero(codes == OPCODES["DEPOLARIZE2"])
    views[pair] = _PAIR_VIEWS
    probs[pair] = (args[starts[pair]] / 15.0)[:, None]
    used[pair] = True
    dep = np.flatnonzero(codes == OPCODES["DEPOLARIZE1"])
    probs[dep, :3] = (args[starts[dep]] / 3.0)[:, None]
    used[dep, :3] = True
    pauli = np.flatnonzero(codes == OPCODES["PAULI_CHANNEL_1"])
    probs[pauli, :3] = args[starts[pauli, None] + np.arange(3)]
    used[pauli, :3] = probs[pauli, :3] > 0
    for slot, name in enumerate(("X_ERROR", "Y_ERROR", "Z_ERROR")):
        rows = np.flatnonzero(codes == OPCODES[name])
        probs[rows, slot] = args[starts[rows]]
        used[rows, slot] = True
    return csr_indptr(used.sum(axis=1)), views[used], probs[used]


def _walk_python(encoded, circuit: Circuit, min_probability: float):
    """The backward walk over Python big-int bitsets (no compiler needed).

    Reads the arrays of :func:`_encode`, as ``dem_walk`` does, and returns
    the rows of :func:`_walk_cext`, from the same merged signatures.
    """
    ops, tptr, targets, cptr, cview, cprob, rec = encoded
    ndet = circuit.num_detectors
    # measurement record -> bitset of the detectors/observables it feeds
    rec_sig = [0] * circuit.num_measurements
    ptr, word, sig_bits = rec.ptr.tolist(), rec.word.tolist(), rec.bits.tolist()
    for r in range(circuit.num_measurements):
        for j in range(ptr[r], ptr[r + 1]):
            rec_sig[r] |= sig_bits[j] << (64 * word[j])

    h, s, sqrt_x, cx, cz, swap, reset, m, mx, mr, noise1, noise2 = _OPCODES.values()
    ops, tptr, targets = ops.tolist(), tptr.tolist(), targets.tolist()
    cptr, cases = cptr.tolist(), list(zip(cview.tolist(), cprob.tolist()))
    xs = [0] * circuit.num_qubits
    zs = [0] * circuit.num_qubits
    cursor = circuit.num_measurements
    # signature -> case probabilities, in reverse enumeration order
    merged: dict[int, list[float]] = {}
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        t = targets[tptr[i] : tptr[i + 1]]
        if op == noise2:
            pair_cases = [(v & 3, v >> 2, p) for v, p in cases[cptr[i] : cptr[i + 1]]][::-1]
            for k in range(len(t) - 2, -1, -2):
                a, b = t[k], t[k + 1]
                va = (0, xs[a], zs[a], xs[a] ^ zs[a])
                vb = (0, xs[b], zs[b], xs[b] ^ zs[b])
                for ma, mb, p in pair_cases:
                    sig = va[ma] ^ vb[mb]
                    if sig:
                        merged.setdefault(sig, []).append(p)
        elif op == noise1:
            one_cases = cases[cptr[i] : cptr[i + 1]][::-1]
            for q in reversed(t):
                view = (0, xs[q], zs[q], xs[q] ^ zs[q])
                for v, p in one_cases:
                    sig = view[v]
                    if sig:
                        merged.setdefault(sig, []).append(p)
        elif op == cx:
            for k in range(len(t) - 2, -1, -2):
                a, b = t[k], t[k + 1]
                xs[a] ^= xs[b]
                zs[b] ^= zs[a]
        elif op in (m, mx, mr):
            cursor -= len(t)
            sens = zs if op == mx else xs
            for k, q in enumerate(t):
                if op == mr:
                    xs[q] = zs[q] = 0
                sens[q] ^= rec_sig[cursor + k]
        elif op == reset:
            for q in t:
                xs[q] = zs[q] = 0
        elif op == h:
            for q in t:
                xs[q], zs[q] = zs[q], xs[q]
        elif op == s:
            for q in t:
                xs[q] ^= zs[q]
        elif op == sqrt_x:
            for q in t:
                zs[q] ^= xs[q]
        elif op == cz:
            for k in range(len(t) - 2, -1, -2):
                a, b = t[k], t[k + 1]
                xs[a] ^= zs[b]
                xs[b] ^= zs[a]
        elif op == swap:
            for k in range(len(t) - 2, -1, -2):
                a, b = t[k], t[k + 1]
                xs[a], xs[b] = xs[b], xs[a]
                zs[a], zs[b] = zs[b], zs[a]
        else:  # pragma: no cover
            raise AssertionError(f"unhandled walk opcode {op}")

    probs, sigs = [], []
    for sig, ps in merged.items():
        ps.reverse()
        probs.append(combine_flip_probabilities(ps))
        sigs.append(_bit_indices(sig))
    ptr, bits = _csr(sigs)
    return _split_rows(np.array(probs, dtype=np.float64), ptr, bits, ndet, min_probability)


def _bit_indices(bits: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of ``bits``."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)
