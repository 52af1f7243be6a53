"""Dense Pauli-string algebra over qubit registers, kept as a test oracle.

A :class:`PauliString` stores per-qubit X and Z bit vectors plus a global
phase exponent (power of ``i``).  It supports multiplication, commutation
checks, and conversion to/from compact text like ``"+XIZY"``.  The tests use
it to check the tableau oracle and the surface-code layouts' logical
operators; the package's simulation paths use raw bit arrays instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PauliString", "PAULI_LABELS"]

PAULI_LABELS = "IXZY"  # index = x_bit + 2 * z_bit

_LABEL_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i^phase * prod_q P_q``.

    Attributes:
        xs: boolean array, X component per qubit.
        zs: boolean array, Z component per qubit.
        phase: global phase exponent modulo 4 (power of the imaginary unit).
    """

    xs: np.ndarray
    zs: np.ndarray
    phase: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=bool))
        object.__setattr__(self, "zs", np.asarray(self.zs, dtype=bool))
        if self.xs.shape != self.zs.shape or self.xs.ndim != 1:
            raise ValueError("xs and zs must be equal-length 1-D arrays")
        object.__setattr__(self, "phase", int(self.phase) % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        zeros = np.zeros(num_qubits, dtype=bool)
        return cls(zeros, zeros.copy())

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse text such as ``"XIZ"``, ``"+XIZ"``, ``"-YY"`` or ``"iX"``."""
        phase = 0
        body = label
        if body.startswith("+"):
            body = body[1:]
        if body.startswith("-"):
            phase = 2
            body = body[1:]
        if body.startswith("i"):
            phase += 1
            body = body[1:]
        xs = np.zeros(len(body), dtype=bool)
        zs = np.zeros(len(body), dtype=bool)
        for q, ch in enumerate(body.upper()):
            if ch not in _LABEL_TO_BITS:
                raise ValueError(f"invalid Pauli character {ch!r}")
            xs[q], zs[q] = _LABEL_TO_BITS[ch]
        return cls(xs, zs, phase)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, pauli: str) -> "PauliString":
        """A single-qubit Pauli embedded in an ``num_qubits``-wide register."""
        ps = cls.identity(num_qubits)
        x, z = _LABEL_TO_BITS[pauli.upper()]
        ps.xs[qubit] = bool(x)
        ps.zs[qubit] = bool(z)
        return ps

    # -- queries -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return int(self.xs.size)

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return int(np.count_nonzero(self.xs | self.zs))

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two operators commute (symplectic inner product 0)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("operators act on different register sizes")
        anti = np.count_nonzero(self.xs & other.zs) + np.count_nonzero(self.zs & other.xs)
        return anti % 2 == 0

    def support(self) -> np.ndarray:
        """Indices of qubits acted on non-trivially."""
        return np.flatnonzero(self.xs | self.zs)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.num_qubits != other.num_qubits:
            raise ValueError("operators act on different register sizes")
        # i^phase bookkeeping: X*Z = -iY, Z*X = iY, etc.  Using the standard
        # symplectic formula: extra phase = sum_q g(self_q, other_q) where the
        # contribution counts anticommutations between self's Z part and
        # other's X part.
        xs = self.xs ^ other.xs
        zs = self.zs ^ other.zs
        # Writing each Pauli in the normal form i^{xz} X^x Z^z, the product
        # phase per qubit is x1z1 + x2z2 + 2*z1x2 - (x1^x2)(z1^z2) (mod 4).
        extra = (
            int(np.count_nonzero(self.xs & self.zs))
            + int(np.count_nonzero(other.xs & other.zs))
            + 2 * int(np.count_nonzero(self.zs & other.xs))
            - int(np.count_nonzero(xs & zs))
        )
        phase = (self.phase + other.phase + extra) % 4
        return PauliString(xs, zs, phase)

    def conjugate_sign_under(self, other: "PauliString") -> int:
        """Return +1 when ``other * self * other^-1 == +self`` else -1."""
        return 1 if self.commutes_with(other) else -1

    # -- formatting --------------------------------------------------------

    def label(self) -> str:
        """Text form like '+XIZY' (phase prefix + per-qubit letters)."""
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        idx = self.xs.astype(int) + 2 * self.zs.astype(int)
        return prefix + "".join(PAULI_LABELS[i] for i in idx)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PauliString({self.label()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.phase == other.phase
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.zs, other.zs)
        )

    def __hash__(self) -> int:
        return hash((self.phase, self.xs.tobytes(), self.zs.tobytes()))
