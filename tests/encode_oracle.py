"""Instruction-walking encoder of the DEM walk's input, kept as a test oracle.

This is the loop :func:`repro.stab.dem._encode` ran before circuits became
columnar: it visits every :class:`~repro.stab.circuit.Instruction` of
``circuit.instructions`` and every :class:`~repro.stab.circuit.DetectorInfo`
of ``circuit.detectors``, and appends each instruction's opcode, targets and
channel cases one by one.  The columnar encoder reads the circuit's arrays
instead; ``test_dem_encoding.py`` checks that both return ``==`` arrays.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.kernels.plane import Signatures
from repro.stab.circuit import Circuit
from repro.stab.dem import _KIND_BY_NAME
from repro.stab.gates import GateKind, ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS

#: opcodes of ``dem_walk``'s instruction encoding, in ``uf.c``'s enum order
OPCODES = {
    kind: i
    for i, kind in enumerate(
        ("h", "s", "sqrt_x", "cx", "cz", "swap", "r", "m", "mx", "mr", "noise1", "noise2")
    )
}


def _pauli_index(x: bool, z: bool) -> int:
    return int(x) | int(z) << 1


#: the 15 two-qubit cases as view codes ``a | b << 2``, in enumeration order
PAIR_VIEWS = [_pauli_index(*pa) | _pauli_index(*pb) << 2 for pa, pb in TWO_QUBIT_PAULIS]


def single_qubit_cases(inst) -> list[tuple[int, float]]:
    """(view index, probability) of each case of a one-qubit channel, in order."""
    args = inst.args
    if inst.name == "DEPOLARIZE1":
        cases = [("X", args[0] / 3.0), ("Y", args[0] / 3.0), ("Z", args[0] / 3.0)]
    elif inst.name == "PAULI_CHANNEL_1":
        cases = [(pauli, p) for pauli, p in zip("XYZ", args) if p > 0]
    else:  # X_ERROR / Y_ERROR / Z_ERROR
        cases = [(inst.name[0], args[0])]
    return [(_pauli_index(*ONE_QUBIT_PAULIS[pauli]), p) for pauli, p in cases]


def encode_instructions(circuit: Circuit):
    """``(ops, tptr, targets, cptr, cview, cprob, rec)`` from the instruction view."""
    ndet = circuit.num_detectors
    ops: list[int] = []
    tptr, targets = [0], []
    cptr, cview, cprob = [0], [], []
    recs: list[int] = []
    cols: list[int] = []
    for j, info in enumerate(circuit.detectors):
        recs.extend(info.rec)
        cols.extend([j] * len(info.rec))
    for inst in circuit.instructions:
        family = inst.gate.kind
        if family == GateKind.ANNOTATION:
            if inst.name == "OBSERVABLE_INCLUDE":
                recs.extend(inst.rec)
                cols.extend([ndet + inst.obs_index] * len(inst.rec))
            continue
        if family == GateKind.NOISE_2:
            ops.append(OPCODES["noise2"])
            cview.extend(PAIR_VIEWS)
            cprob.extend([inst.args[0] / 15.0] * len(PAIR_VIEWS))
        elif family == GateKind.NOISE_1:
            ops.append(OPCODES["noise1"])
            for m, p in single_qubit_cases(inst):
                cview.append(m)
                cprob.append(p)
        else:
            kind = _KIND_BY_NAME[inst.name]
            if kind == "skip":
                continue
            ops.append(OPCODES[kind])
        targets.extend(inst.targets)
        tptr.append(len(targets))
        cptr.append(len(cview))
    ops, tptr, targets, cptr, cview = (
        np.asarray(a, dtype=np.int64) for a in (ops, tptr, targets, cptr, cview)
    )
    rec = Signatures(recs, cols, circuit.num_measurements, ndet + circuit.num_observables)
    return ops, tptr, targets, cptr, cview, np.asarray(cprob, dtype=np.float64), rec
