"""Forward-propagation DEM extractor, kept as a test oracle.

This is the column-propagation extractor :func:`repro.stab.circuit_to_dem`
used before it became a single backward sensitivity pass.  Every Pauli
component of every noise channel is one column of a wide Pauli-frame batch:
component *k* is injected right before its own instruction executes and all
later gates act on every column, so the measurement flips of column *k* give
that component's detector/observable signature.  Components with identical
signatures are merged with XOR-probability combination.

It is slow (each chunk re-walks the instruction list) but shares no code
with the backward pass beyond :func:`compile_instruction`, which makes it an
independent reference for the exact-parity tests in ``test_dem_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from frame_oracle import compile_instruction

from repro._util import combine_flip_probabilities
from repro.stab.circuit import Circuit
from repro.stab.dem import DemError, DetectorErrorModel
from repro.stab.gates import GateKind, TWO_QUBIT_PAULIS


def forward_circuit_to_dem(
    circuit: Circuit,
    *,
    chunk_size: int = 32768,
    min_probability: float = 0.0,
) -> DetectorErrorModel:
    """Extract the detector error model of ``circuit`` by forward propagation.

    Args:
        circuit: the noisy circuit.
        chunk_size: number of error components propagated per pass.
        min_probability: mechanisms with probability at or below this value
            are dropped after merging.
    """
    components = _enumerate_components(circuit)
    plan = [compile_instruction(inst) for inst in circuit.instructions]

    merged: dict[tuple[tuple[int, ...], tuple[int, ...]], list[float]] = {}
    for start in range(0, len(components), chunk_size):
        chunk = components[start : start + chunk_size]
        det_sigs, obs_sigs = _propagate_chunk(circuit, plan, chunk)
        for k, comp in enumerate(chunk):
            key = (det_sigs[k], obs_sigs[k])
            if key == ((), ()):
                continue  # invisible error (flips nothing observable)
            merged.setdefault(key, []).append(comp.probability)

    errors = []
    for (dets, obs), ps in sorted(merged.items()):
        p = combine_flip_probabilities(ps)
        if p > min_probability:
            errors.append(DemError(p, dets, obs))
    return DetectorErrorModel.from_errors(
        errors=errors,
        num_detectors=circuit.num_detectors,
        num_observables=circuit.num_observables,
        detector_coords=[info.coords for info in circuit.detectors],
        detector_basis=[info.basis for info in circuit.detectors],
    )


@dataclass(frozen=True)
class _Component:
    """One Pauli case of one noise-channel application."""

    inst_index: int
    qubits: tuple[int, ...]
    xflips: tuple[bool, ...]
    zflips: tuple[bool, ...]
    probability: float


def _enumerate_components(circuit: Circuit) -> list[_Component]:
    comps: list[_Component] = []
    for pos, inst in enumerate(circuit.instructions):
        kind = inst.gate.kind
        if kind == GateKind.NOISE_1:
            for q in inst.targets:
                comps.extend(_one_qubit_cases(pos, q, inst))
        elif kind == GateKind.NOISE_2:
            p15 = inst.args[0] / 15.0
            for i in range(0, len(inst.targets), 2):
                a, b = inst.targets[i], inst.targets[i + 1]
                for (x1, z1), (x2, z2) in TWO_QUBIT_PAULIS:
                    comps.append(_Component(pos, (a, b), (x1, x2), (z1, z2), p15))
    return comps


def _one_qubit_cases(pos: int, q: int, inst) -> list[_Component]:
    name = inst.name
    if name == "X_ERROR":
        return [_Component(pos, (q,), (True,), (False,), inst.args[0])]
    if name == "Z_ERROR":
        return [_Component(pos, (q,), (False,), (True,), inst.args[0])]
    if name == "Y_ERROR":
        return [_Component(pos, (q,), (True,), (True,), inst.args[0])]
    if name == "DEPOLARIZE1":
        p3 = inst.args[0] / 3.0
        return [
            _Component(pos, (q,), (True,), (False,), p3),
            _Component(pos, (q,), (True,), (True,), p3),
            _Component(pos, (q,), (False,), (True,), p3),
        ]
    if name == "PAULI_CHANNEL_1":
        px, py, pz = inst.args
        out = []
        if px > 0:
            out.append(_Component(pos, (q,), (True,), (False,), px))
        if py > 0:
            out.append(_Component(pos, (q,), (True,), (True,), py))
        if pz > 0:
            out.append(_Component(pos, (q,), (False,), (True,), pz))
        return out
    raise ValueError(f"unhandled noise channel {name}")


def _propagate_chunk(circuit: Circuit, plan, chunk):
    """Propagate one chunk of components; returns per-component signatures."""
    width = len(chunk)
    nq = circuit.num_qubits
    x = np.zeros((nq, width), dtype=bool)
    z = np.zeros((nq, width), dtype=bool)
    det = np.zeros((circuit.num_detectors, width), dtype=bool)
    obs = np.zeros((circuit.num_observables, width), dtype=bool)

    # group component injections by instruction index
    inject: dict[int, list[int]] = {}
    for k, comp in enumerate(chunk):
        inject.setdefault(comp.inst_index, []).append(k)

    # measurement -> (detector rows, observable rows) fanout
    det_fanout: dict[int, list[int]] = {}
    for j, info in enumerate(circuit.detectors):
        for r in info.rec:
            det_fanout.setdefault(r, []).append(j)
    obs_fanout: dict[int, list[int]] = {}
    for inst in circuit.instructions:
        if inst.name == "OBSERVABLE_INCLUDE":
            for r in inst.rec:
                obs_fanout.setdefault(r, []).append(inst.obs_index)

    cursor = 0
    for pos, ops in enumerate(plan):
        for k in inject.get(pos, ()):
            comp = chunk[k]
            for q, xf, zf in zip(comp.qubits, comp.xflips, comp.zflips):
                if xf:
                    x[q, k] ^= True
                if zf:
                    z[q, k] ^= True
        for op in ops:
            kind = op.kind
            if kind in (
                "skip",
                "x_error",
                "z_error",
                "y_error",
                "depolarize1",
                "depolarize2",
                "pauli_channel_1",
            ):
                continue
            if kind == "cx":
                x[op.b] ^= x[op.a]
                z[op.a] ^= z[op.b]
            elif kind in ("m", "mx", "mr"):
                src = z if kind == "mx" else x
                for i, q in enumerate(op.a):
                    rec = cursor + i
                    flips = src[q]
                    for d in det_fanout.get(rec, ()):
                        det[d] ^= flips
                    for o in obs_fanout.get(rec, ()):
                        obs[o] ^= flips
                cursor += op.a.size
                if kind == "mr":
                    x[op.a] = False
                    z[op.a] = False
            elif kind == "r":
                x[op.a] = False
                z[op.a] = False
            elif kind == "h":
                tmp = x[op.a].copy()
                x[op.a] = z[op.a]
                z[op.a] = tmp
            elif kind == "s":
                z[op.a] ^= x[op.a]
            elif kind == "sqrt_x":
                x[op.a] ^= z[op.a]
            elif kind == "cz":
                z[op.b] ^= x[op.a]
                z[op.a] ^= x[op.b]
            elif kind == "swap":
                for arr in (x, z):
                    tmp = arr[op.a].copy()
                    arr[op.a] = arr[op.b]
                    arr[op.b] = tmp
            else:
                raise AssertionError(f"unhandled kind {kind}")

    return _columns_to_tuples(det), _columns_to_tuples(obs)


def _columns_to_tuples(mat: np.ndarray) -> list[tuple[int, ...]]:
    if mat.shape[0] == 0:
        return [()] * mat.shape[1]
    rows, cols = np.nonzero(mat)
    out: list[list[int]] = [[] for _ in range(mat.shape[1])]
    for r, c in zip(rows.tolist(), cols.tolist()):
        out[c].append(r)
    return [tuple(v) for v in out]
