"""Generic CSS codes: check matrices, logicals, syndrome circuits.

The heterogeneous systems of Fig. 1(a)/3(a) combine the surface code with
color codes (magic states) and qLDPC codes (memory).  This module provides
the shared machinery those codes need:

* :class:`CssCode` — validated ``H_X``/``H_Z`` pair with GF(2)-derived
  logical operators and qubit counts;
* :func:`syndrome_schedule` — CNOT layers via greedy bipartite edge coloring
  (every data qubit and every ancilla used at most once per layer), which
  determines the code's syndrome-generation cycle time — the quantity that
  drives desynchronization;
* :func:`css_memory_experiment` — a full noisy memory circuit with detectors
  and a logical observable, tableau-verified like the surface-code circuits.

The schedules here are generic (not the hand-optimized fault-tolerant orders
of the original papers), so circuit-level *distance* may be reduced by hook
errors; they are used for cycle-time modelling, determinism-checked circuit
generation, and cross-code timing studies, as in the paper's own usage
(Sec. 6 restricts LER evaluations to the surface code for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._gf2 import nullspace, rank
from ..noise.hardware import HardwareConfig
from ..noise.models import NoiseModel
from ..stab.circuit import Circuit

__all__ = ["CssCode", "syndrome_schedule", "css_memory_experiment", "CssMemoryArtifacts"]


@dataclass
class CssCode:
    """A CSS stabilizer code defined by its two check matrices."""

    name: str
    hx: np.ndarray
    hz: np.ndarray

    def __post_init__(self) -> None:
        self.hx = (np.asarray(self.hx, dtype=np.uint8) & 1).astype(np.uint8)
        self.hz = (np.asarray(self.hz, dtype=np.uint8) & 1).astype(np.uint8)
        if self.hx.shape[1] != self.hz.shape[1]:
            raise ValueError("H_X and H_Z act on different numbers of qubits")
        if np.any((self.hx @ self.hz.T) % 2):
            raise ValueError("H_X H_Z^T != 0: not a CSS code")

    # -- parameters --------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return int(self.hx.shape[1])

    @property
    def num_x_checks(self) -> int:
        return int(self.hx.shape[0])

    @property
    def num_z_checks(self) -> int:
        return int(self.hz.shape[0])

    @property
    def num_logical(self) -> int:
        return self.num_qubits - rank(self.hx) - rank(self.hz)

    def logical_z_operators(self) -> np.ndarray:
        """Basis of logical Z operators (in ker H_X, independent of rows H_Z)."""
        return self._logicals(self.hx, self.hz)

    def logical_x_operators(self) -> np.ndarray:
        """Basis of logical X operators (in ker H_Z, modulo rows of H_X)."""
        return self._logicals(self.hz, self.hx)

    @staticmethod
    def _logicals(commute_with: np.ndarray, modulo: np.ndarray) -> np.ndarray:
        candidates = nullspace(commute_with)
        chosen: list[np.ndarray] = []
        stack = modulo.copy()
        base_rank = rank(stack)
        for v in candidates:
            test = np.vstack([stack, v.reshape(1, -1)])
            r = rank(test)
            if r > base_rank:
                chosen.append(v)
                stack = test
                base_rank = r
        return np.array(chosen, dtype=np.uint8)

    def check_weights(self) -> tuple[int, int]:
        """(max X-check weight, max Z-check weight)."""
        wx = int(self.hx.sum(axis=1).max()) if self.num_x_checks else 0
        wz = int(self.hz.sum(axis=1).max()) if self.num_z_checks else 0
        return wx, wz


def syndrome_schedule(code: CssCode) -> list[list[tuple[int, int, str]]]:
    """Greedy edge-coloring CNOT schedule for one syndrome cycle.

    Returns a list of layers; each layer is a list of ``(ancilla, data,
    basis)`` CNOT assignments where ``ancilla`` indexes X checks first, then
    Z checks.  Within a layer every data qubit and every ancilla appears at
    most once, so all CNOTs of a layer run concurrently.

    All X-check layers precede all Z-check layers: interleaving the two
    bases requires the hand-crafted flux-consistent orderings of the original
    code papers (e.g. the 7-layer gross-code schedule), without which the
    circuit measures the wrong operators.  The sequential schedule is always
    correct at the cost of a longer cycle — conservative for the
    desynchronization studies this module feeds.
    """
    layers: list[list[tuple[int, int, str]]] = []
    for basis, matrix, offset in (
        ("X", code.hx, 0),
        ("Z", code.hz, code.num_x_checks),
    ):
        group: list[list[tuple[int, int, str]]] = []
        group_anc: list[set[int]] = []
        group_data: list[set[int]] = []
        for row in range(matrix.shape[0]):
            for q in np.flatnonzero(matrix[row]):
                anc, q = offset + row, int(q)
                for i in range(len(group)):
                    if anc not in group_anc[i] and q not in group_data[i]:
                        group[i].append((anc, q, basis))
                        group_anc[i].add(anc)
                        group_data[i].add(q)
                        break
                else:
                    group.append([(anc, q, basis)])
                    group_anc.append({anc})
                    group_data.append({q})
        layers.extend(group)
    return layers


def cycle_time_ns(code: CssCode, hw: HardwareConfig) -> float:
    """Syndrome cycle duration implied by the edge-colored schedule."""
    layers = syndrome_schedule(code)
    return (
        2 * hw.time_1q_ns
        + len(layers) * hw.time_2q_ns
        + hw.time_readout_ns
        + hw.time_reset_ns
    )


@dataclass
class CssMemoryArtifacts:
    circuit: Circuit
    code: CssCode
    rounds: int
    num_layers: int
    detector_basis: str


def css_memory_experiment(
    code: CssCode,
    rounds: int,
    noise: NoiseModel,
    *,
    basis: str = "Z",
    logical_index: int = 0,
) -> CssMemoryArtifacts:
    """Noisy memory experiment for an arbitrary CSS code.

    Data qubits are 0..n-1; X-check ancillas follow, then Z-check ancillas.
    Detectors ride on the checks of ``basis``; the observable is the chosen
    logical operator read from the final transversal measurement.
    """
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    if rounds < 1:
        raise ValueError("need at least one round")
    n = code.num_qubits
    data = list(range(n))
    anc_offset = n
    num_anc = code.num_x_checks + code.num_z_checks
    anc = [anc_offset + a for a in range(num_anc)]
    layers = syndrome_schedule(code)
    hw = noise.hardware

    logicals = code.logical_z_operators() if basis == "Z" else code.logical_x_operators()
    if logical_index >= len(logicals):
        raise ValueError(f"code has only {len(logicals)} logical operators")
    logical_support = np.flatnonzero(logicals[logical_index])

    c = Circuit()
    c.append("RX" if basis == "X" else "R", data)
    noise.emit_reset_flip(c, data, basis)
    c.append("R", anc)
    noise.emit_reset_flip(c, anc, "Z")

    x_anc = [anc_offset + a for a in range(code.num_x_checks)]
    in_basis = range(code.num_x_checks) if basis == "X" else range(
        code.num_x_checks, num_anc
    )

    prev: list[int] = []
    for r in range(rounds):
        if x_anc:
            c.append("H", x_anc)
            noise.emit_clifford1(c, x_anc)
            noise.emit_idle(c, sorted(set(data + anc) - set(x_anc)), hw.time_1q_ns,
                            structural=True)
        for layer in layers:
            pairs = []
            active = set()
            for a, q, check_basis in layer:
                ctrl, tgt = (anc_offset + a, q) if check_basis == "X" else (q, anc_offset + a)
                pairs.extend((ctrl, tgt))
                active.update((anc_offset + a, q))
            c.append("CX", pairs)
            noise.emit_clifford2(c, pairs)
            noise.emit_idle(c, sorted(set(data + anc) - active), hw.time_2q_ns,
                            structural=True)
        if x_anc:
            c.append("H", x_anc)
            noise.emit_clifford1(c, x_anc)
            noise.emit_idle(c, sorted(set(data + anc) - set(x_anc)), hw.time_1q_ns,
                            structural=True)
        noise.emit_measure_flip(c, anc, "Z")
        recs = c.append("MR", anc)
        noise.emit_reset_flip(c, anc, "Z")
        noise.emit_idle(c, data, hw.time_readout_ns + hw.time_reset_ns, structural=True)
        c.append_detectors(
            [[recs[k]] if r == 0 else [prev[k], recs[k]] for k in in_basis],
            coords=[(k, r) for k in in_basis],
            basis=basis,
        )
        prev = recs

    noise.emit_measure_flip(c, data, basis)
    finals = c.append("MX" if basis == "X" else "M", data)
    matrix = code.hx if basis == "X" else code.hz
    row_ids = range(code.num_x_checks) if basis == "X" else range(code.num_z_checks)
    c.append_detectors(
        [
            [prev[k]] + [finals[q] for q in np.flatnonzero(matrix[row])]
            for k, row in zip(in_basis, row_ids)
        ],
        coords=[(k, rounds) for k in in_basis],
        basis=basis,
    )
    c.observable_include(0, [finals[int(q)] for q in logical_support])
    return CssMemoryArtifacts(
        circuit=c, code=code, rounds=rounds, num_layers=len(layers), detector_basis=basis
    )
