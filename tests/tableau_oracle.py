"""Aaronson–Gottesman CHP tableau simulator, kept as a test oracle.

This is the substrate's *verification oracle*: an independent, state-vector-
equivalent stabilizer simulator used to check that generated circuits have
deterministic detectors and observables in the absence of noise, and to
cross-validate the Pauli-frame sampler on small noisy circuits.

The implementation follows the original CHP construction (Aaronson &
Gottesman, PRA 70, 052328): ``2n`` rows of destabilizers/stabilizers plus a
scratch row, with mod-4 phase bookkeeping in ``rowsum``.
"""

from __future__ import annotations

import numpy as np

from repro._util import resolve_rng
from repro.stab.circuit import Circuit
from repro.stab.gates import GateKind

__all__ = ["TableauSimulator", "simulate_circuit"]


class TableauSimulator:
    """Stabilizer state on ``num_qubits`` qubits, initialized to |0...0>."""

    def __init__(self, num_qubits: int, rng: np.random.Generator | int | None = None):
        self.n = int(num_qubits)
        n = self.n
        self.rng = resolve_rng(rng)
        # rows 0..n-1 destabilizers, n..2n-1 stabilizers, 2n scratch
        self.x = np.zeros((2 * n + 1, n), dtype=bool)
        self.z = np.zeros((2 * n + 1, n), dtype=bool)
        # two-bit phase exponent per row (row operator carries i^r): rowsum on
        # destabilizer rows legitimately produces +/-i phases, exactly as in
        # the original chp.c implementation
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = True  # destabilizer i = X_i
        self.z[np.arange(n, 2 * n), np.arange(n)] = True  # stabilizer i = Z_i

    # -- internals ---------------------------------------------------------

    def _rowsum(self, h: int, i: int) -> None:
        """Row h := row h * row i, with exact phase tracking (mod 4)."""
        x1, z1 = self.x[i], self.z[i]
        x2, z2 = self.x[h], self.z[h]
        # g-function per qubit, vectorized; values in {-1, 0, +1}
        g = np.zeros(self.n, dtype=np.int64)
        y1 = x1 & z1
        xonly1 = x1 & ~z1
        zonly1 = ~x1 & z1
        g[y1] = z2[y1].astype(np.int64) - x2[y1].astype(np.int64)
        g[xonly1] = z2[xonly1].astype(np.int64) * (2 * x2[xonly1].astype(np.int64) - 1)
        g[zonly1] = x2[zonly1].astype(np.int64) * (1 - 2 * z2[zonly1].astype(np.int64))
        self.r[h] = (int(self.r[h]) + int(self.r[i]) + int(g.sum())) % 4
        self.x[h] = x1 ^ x2
        self.z[h] = z1 ^ z2

    # -- gates ---------------------------------------------------------------

    def h(self, a: int) -> None:
        """Hadamard."""
        self.r = (self.r + 2 * (self.x[:, a] & self.z[:, a])) % 4
        tmp = self.x[:, a].copy()
        self.x[:, a] = self.z[:, a]
        self.z[:, a] = tmp

    def s(self, a: int) -> None:
        """Phase gate S."""
        self.r = (self.r + 2 * (self.x[:, a] & self.z[:, a])) % 4
        self.z[:, a] ^= self.x[:, a]

    def s_dag(self, a: int) -> None:
        """Inverse phase gate (S applied three times)."""
        self.s(a)
        self.s(a)
        self.s(a)

    def x_gate(self, a: int) -> None:
        """Pauli X (sign update only)."""
        self.r = (self.r + 2 * self.z[:, a]) % 4

    def y_gate(self, a: int) -> None:
        """Pauli Y (sign update only)."""
        self.r = (self.r + 2 * (self.x[:, a] ^ self.z[:, a])) % 4

    def z_gate(self, a: int) -> None:
        """Pauli Z (sign update only)."""
        self.r = (self.r + 2 * self.x[:, a]) % 4

    def cx(self, a: int, b: int) -> None:
        """Controlled-NOT."""
        flip = self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ True)
        self.r = (self.r + 2 * flip) % 4
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def cz(self, a: int, b: int) -> None:
        """Controlled-Z (via H-conjugated CNOT)."""
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        """SWAP (three CNOTs)."""
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)

    def sqrt_x(self, a: int) -> None:
        """sqrt(X) (H S H, equal up to global phase)."""
        self.h(a)
        self.s(a)
        self.h(a)

    # -- measurement / reset -------------------------------------------------

    def measure(self, a: int) -> int:
        """Z-basis measurement with collapse; returns the outcome bit."""
        n = self.n
        stab_rows = np.flatnonzero(self.x[n : 2 * n, a]) + n
        if stab_rows.size:
            p = int(stab_rows[0])
            for i in np.flatnonzero(self.x[:, a]):
                i = int(i)
                if i != p and i != 2 * n:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, a] = True
            self.r[p] = 2 * int(self.rng.integers(0, 2))
            return int(self.r[p]) // 2
        # deterministic outcome: accumulate into the scratch row
        self.x[2 * n] = False
        self.z[2 * n] = False
        self.r[2 * n] = 0
        for i in np.flatnonzero(self.x[:n, a]):
            self._rowsum(2 * n, int(i) + n)
        if self.r[2 * n] % 2 != 0:  # pragma: no cover - non-Clifford bug
            raise AssertionError("deterministic measurement with imaginary phase")
        return int(self.r[2 * n]) // 2

    def reset(self, a: int) -> None:
        """Reset to |0>: measure, then flip on outcome 1."""
        if self.measure(a):
            self.x_gate(a)

    def measure_x(self, a: int) -> int:
        """X-basis measurement (H-conjugated Z measurement)."""
        self.h(a)
        out = self.measure(a)
        self.h(a)
        return out

    def reset_x(self, a: int) -> None:
        """Reset to |+>."""
        self.reset(a)
        self.h(a)

    # -- expectation helper ----------------------------------------------------

    def expectation_of_pauli(self, xs: np.ndarray, zs: np.ndarray) -> int:
        """Expectation of a Pauli product: +1, -1, or 0 (indeterminate).

        Decomposes the operator over stabilizer generators when it commutes
        with all of them; otherwise the expectation is 0.
        """
        n = self.n
        # check commutation with every stabilizer row
        anti = (self.x[n : 2 * n] & zs[None, :]).sum(axis=1) + (
            self.z[n : 2 * n] & xs[None, :]
        ).sum(axis=1)
        if np.any(anti % 2 == 1):
            return 0
        # find the product of stabilizers equal to the operator via destabilizers:
        # stabilizer row j participates iff the operator anticommutes with
        # destabilizer j.
        anti_d = (self.x[:n] & zs[None, :]).sum(axis=1) + (self.z[:n] & xs[None, :]).sum(axis=1)
        rows = np.flatnonzero(anti_d % 2 == 1)
        self.x[2 * n] = False
        self.z[2 * n] = False
        self.r[2 * n] = 0
        for j in rows:
            self._rowsum(2 * n, int(j) + n)
        if not (np.array_equal(self.x[2 * n], xs) and np.array_equal(self.z[2 * n], zs)):
            return 0  # operator is not in the stabilizer group
        if self.r[2 * n] % 2 != 0:  # pragma: no cover - non-Clifford bug
            raise AssertionError("stabilizer-group element with imaginary phase")
        return -1 if self.r[2 * n] == 2 else 1


def simulate_circuit(
    circuit: Circuit,
    rng: np.random.Generator | int | None = None,
    *,
    with_noise: bool = True,
):
    """Run a circuit once through the tableau simulator.

    Returns ``(measurements, detectors, observables)`` as int arrays.
    Noise channels are Monte-Carlo sampled unless ``with_noise`` is False.
    """
    rng = resolve_rng(rng)
    sim = TableauSimulator(circuit.num_qubits, rng)
    meas = np.zeros(circuit.num_measurements, dtype=np.uint8)
    cursor = 0
    for inst in circuit:
        kind = inst.gate.kind
        name = inst.name
        if kind == GateKind.CLIFFORD_1:
            for t in inst.targets:
                _apply_1q(sim, name, t)
        elif kind == GateKind.CLIFFORD_2:
            for i in range(0, len(inst.targets), 2):
                _apply_2q(sim, name, inst.targets[i], inst.targets[i + 1])
        elif kind == GateKind.RESET:
            for t in inst.targets:
                sim.reset(t) if name in ("R", "RZ") else sim.reset_x(t)
        elif kind == GateKind.MEASURE:
            for t in inst.targets:
                if name == "MX":
                    meas[cursor] = sim.measure_x(t)
                elif name == "MR":
                    meas[cursor] = sim.measure(t)
                    if meas[cursor]:
                        sim.x_gate(t)
                else:
                    meas[cursor] = sim.measure(t)
                cursor += 1
        elif kind in (GateKind.NOISE_1, GateKind.NOISE_2):
            if with_noise:
                _apply_noise(sim, inst, rng)
        # annotations handled below / ignored

    det = np.zeros(circuit.num_detectors, dtype=np.uint8)
    for j, info in enumerate(circuit.detectors):
        det[j] = np.bitwise_xor.reduce(meas[list(info.rec)]) if info.rec else 0
    obs = np.zeros(circuit.num_observables, dtype=np.uint8)
    for inst in circuit:
        if inst.name == "OBSERVABLE_INCLUDE" and inst.rec:
            obs[inst.obs_index] ^= np.bitwise_xor.reduce(meas[list(inst.rec)])
    return meas, det, obs


def _apply_1q(sim: TableauSimulator, name: str, t: int) -> None:
    if name in ("I", "X", "Y", "Z"):
        {"I": lambda a: None, "X": sim.x_gate, "Y": sim.y_gate, "Z": sim.z_gate}[name](t)
    elif name == "H":
        sim.h(t)
    elif name == "S":
        sim.s(t)
    elif name == "S_DAG":
        sim.s_dag(t)
    elif name in ("SQRT_X", "SQRT_X_DAG"):
        sim.sqrt_x(t)
    else:  # pragma: no cover
        raise ValueError(f"unhandled 1q gate {name}")


def _apply_2q(sim: TableauSimulator, name: str, a: int, b: int) -> None:
    if name in ("CX", "CNOT"):
        sim.cx(a, b)
    elif name == "CZ":
        sim.cz(a, b)
    elif name == "SWAP":
        sim.swap(a, b)
    else:  # pragma: no cover
        raise ValueError(f"unhandled 2q gate {name}")


def _apply_noise(sim: TableauSimulator, inst, rng: np.random.Generator) -> None:
    name = inst.name
    if name == "DEPOLARIZE2":
        for i in range(0, len(inst.targets), 2):
            if rng.random() < inst.args[0]:
                k = int(rng.integers(1, 16))
                _apply_pauli_bits(sim, inst.targets[i], bool(k >> 3 & 1), bool(k >> 2 & 1))
                _apply_pauli_bits(sim, inst.targets[i + 1], bool(k >> 1 & 1), bool(k & 1))
        return
    for t in inst.targets:
        if name == "X_ERROR":
            if rng.random() < inst.args[0]:
                sim.x_gate(t)
        elif name == "Y_ERROR":
            if rng.random() < inst.args[0]:
                sim.y_gate(t)
        elif name == "Z_ERROR":
            if rng.random() < inst.args[0]:
                sim.z_gate(t)
        elif name == "DEPOLARIZE1":
            if rng.random() < inst.args[0]:
                which = int(rng.integers(0, 3))
                [sim.x_gate, sim.y_gate, sim.z_gate][which](t)
        elif name == "PAULI_CHANNEL_1":
            u = rng.random()
            px, py, pz = inst.args
            if u < px:
                sim.x_gate(t)
            elif u < px + py:
                sim.y_gate(t)
            elif u < px + py + pz:
                sim.z_gate(t)
        else:  # pragma: no cover
            raise ValueError(f"unhandled noise {name}")


def _apply_pauli_bits(sim: TableauSimulator, t: int, x: bool, z: bool) -> None:
    if x and z:
        sim.y_gate(t)
    elif x:
        sim.x_gate(t)
    elif z:
        sim.z_gate(t)
