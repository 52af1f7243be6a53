"""Vectorized Pauli-frame sampler, kept as a test oracle.

Samples many shots of a noisy stabilizer circuit at once by tracking, for each
shot, the Pauli *frame* (the difference between the noisy run and a noiseless
reference run).  Because all circuits generated in this project have
deterministic detectors and observables in the noiseless reference (enforced
by tests against the tableau oracle), the sampled frame flips of measurements
directly give detector and observable outcomes.

Layout: bit planes are ``(num_qubits, batch)`` boolean arrays so that per-gate
work is contiguous row slicing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import resolve_rng
from repro.stab.circuit import Circuit
from repro.stab.dem import _KIND_BY_NAME
from repro.stab.gates import GateKind

__all__ = ["FrameSimulator", "sample_detectors"]


class FrameSimulator:
    """Samples measurement-flip data for a fixed circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._det_matrix = _record_matrix(circuit)
        self._obs_matrix = _observable_matrix(circuit)
        # Pre-split targets into numpy arrays once; hot loop reuses them.
        self._plan = [op for inst in circuit.instructions for op in compile_instruction(inst)]

    def sample(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
        *,
        batch_size: int = 4096,
        return_measurements: bool = False,
    ):
        """Sample ``shots`` shots; returns ``(detectors, observables)`` bool arrays.

        With ``return_measurements=True`` returns
        ``(detectors, observables, measurement_flips)`` instead.
        """
        rng = resolve_rng(rng)
        det_parts, obs_parts, meas_parts = [], [], []
        remaining = shots
        while remaining > 0:
            batch = min(batch_size, remaining)
            meas = self._run_batch(batch, rng)
            det_parts.append(_apply_record_matrix(self._det_matrix, meas))
            obs_parts.append(_apply_record_matrix(self._obs_matrix, meas))
            if return_measurements:
                meas_parts.append(meas.T.copy())
            remaining -= batch
        det = np.concatenate(det_parts, axis=0) if det_parts else np.zeros((0, 0), bool)
        obs = np.concatenate(obs_parts, axis=0) if obs_parts else np.zeros((0, 0), bool)
        if return_measurements:
            return det, obs, np.concatenate(meas_parts, axis=0)
        return det, obs

    # -- core batch loop -----------------------------------------------------

    def _run_batch(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        c = self.circuit
        x = np.zeros((c.num_qubits, batch), dtype=bool)
        z = np.zeros((c.num_qubits, batch), dtype=bool)
        meas = np.zeros((c.num_measurements, batch), dtype=bool)
        cursor = 0
        for op in self._plan:
            kind = op.kind
            if kind == "skip":
                continue
            if kind == "cx":
                _pairwise_cx(x, z, op.a, op.b)
            elif kind == "m":
                meas[cursor : cursor + op.a.size] = x[op.a]
                cursor += op.a.size
            elif kind == "mx":
                meas[cursor : cursor + op.a.size] = z[op.a]
                cursor += op.a.size
            elif kind == "mr":
                meas[cursor : cursor + op.a.size] = x[op.a]
                cursor += op.a.size
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
                _pairwise_cz(x, z, op.a, op.b)
            elif kind == "swap":
                for arr in (x, z):
                    tmp = arr[op.a].copy()
                    arr[op.a] = arr[op.b]
                    arr[op.b] = tmp
            elif kind == "x_error":
                x[op.a] ^= rng.random((op.a.size, batch)) < op.p[0]
            elif kind == "z_error":
                z[op.a] ^= rng.random((op.a.size, batch)) < op.p[0]
            elif kind == "y_error":
                flip = rng.random((op.a.size, batch)) < op.p[0]
                x[op.a] ^= flip
                z[op.a] ^= flip
            elif kind == "depolarize1":
                hit = rng.random((op.a.size, batch)) < op.p[0]
                u = rng.random((op.a.size, batch))
                x[op.a] ^= hit & (u < 2.0 / 3.0)
                z[op.a] ^= hit & (u >= 1.0 / 3.0)
            elif kind == "pauli_channel_1":
                px, py, pz = op.p
                u = rng.random((op.a.size, batch))
                x[op.a] ^= u < (px + py)
                z[op.a] ^= (u >= px) & (u < px + py + pz)
            elif kind == "depolarize2":
                hit = rng.random((op.a.size, batch)) < op.p[0]
                k = rng.integers(1, 16, size=(op.a.size, batch), dtype=np.uint8)
                x[op.a] ^= hit & ((k >> 3 & 1) > 0)
                z[op.a] ^= hit & ((k >> 2 & 1) > 0)
                x[op.b] ^= hit & ((k >> 1 & 1) > 0)
                z[op.b] ^= hit & ((k & 1) > 0)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled op kind {kind}")
        return meas


class _CompiledOp:
    __slots__ = ("kind", "a", "b", "p")

    def __init__(self, kind, a=None, b=None, p=()):
        self.kind = kind
        self.a = a
        self.b = b
        self.p = p


def compile_instruction(inst) -> list[_CompiledOp]:
    """Compile one instruction into vectorizable ops.

    Two-qubit *Clifford* layers whose pairs share qubits (e.g. a CNOT chain
    written as one instruction) have sequential semantics, so they are split
    into maximal prefix groups of disjoint pairs.  Noise pairs commute as
    frame flips and never need splitting.
    """
    if inst.gate.kind == GateKind.ANNOTATION:
        return [_CompiledOp("skip")]
    kind = _KIND_BY_NAME[inst.name]
    t = np.asarray(inst.targets, dtype=np.intp)
    if inst.gate.targets_per_op != 2:
        return [_CompiledOp(kind, t, None, inst.args)]
    if inst.gate.kind == GateKind.NOISE_2:
        return [_CompiledOp(kind, t[0::2], t[1::2], inst.args)]
    ops = []
    group: list[int] = []
    used: set[int] = set()
    for i in range(0, len(t), 2):
        a, b = int(t[i]), int(t[i + 1])
        if a in used or b in used:
            ops.append(_group_op(kind, group, inst.args))
            group, used = [], set()
        group.extend((a, b))
        used.update((a, b))
    if group:
        ops.append(_group_op(kind, group, inst.args))
    return ops


def _group_op(kind, flat_pairs, args) -> _CompiledOp:
    g = np.asarray(flat_pairs, dtype=np.intp)
    return _CompiledOp(kind, g[0::2], g[1::2], args)


def _pairwise_cx(x, z, ctrl, tgt) -> None:
    # Pairs inside one layer are disjoint by construction (validated by the
    # circuit generators), so vectorized fancy-index XOR is safe.
    x[tgt] ^= x[ctrl]
    z[ctrl] ^= z[tgt]


def _pairwise_cz(x, z, a, b) -> None:
    z[b] ^= x[a]
    z[a] ^= x[b]


def _record_matrix(circuit: Circuit) -> sp.csr_matrix:
    """Sparse (num_detectors x num_measurements) parity matrix."""
    rows, cols = [], []
    for j, info in enumerate(circuit.detectors):
        for r in info.rec:
            rows.append(j)
            cols.append(r)
    data = np.ones(len(rows), dtype=np.uint8)
    return sp.csr_matrix(
        (data, (rows, cols)),
        shape=(circuit.num_detectors, circuit.num_measurements),
    )


def _observable_matrix(circuit: Circuit) -> sp.csr_matrix:
    rows, cols = [], []
    for inst in circuit.instructions:
        if inst.name == "OBSERVABLE_INCLUDE":
            for r in inst.rec:
                rows.append(inst.obs_index)
                cols.append(r)
    data = np.ones(len(rows), dtype=np.uint8)
    return sp.csr_matrix(
        (data, (rows, cols)),
        shape=(circuit.num_observables, circuit.num_measurements),
    )


def _apply_record_matrix(matrix: sp.csr_matrix, meas: np.ndarray) -> np.ndarray:
    """(records x batch) measurement flips -> (batch x rows) parity bits."""
    if matrix.shape[0] == 0:
        return np.zeros((meas.shape[1], 0), dtype=bool)
    acc = matrix @ meas.astype(np.uint8)
    return (acc % 2).astype(bool).T


def sample_detectors(
    circuit: Circuit,
    shots: int,
    rng: np.random.Generator | int | None = None,
    **kwargs,
):
    """One-call convenience wrapper around :class:`FrameSimulator`."""
    return FrameSimulator(circuit).sample(shots, rng, **kwargs)
