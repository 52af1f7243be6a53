"""Gate set of the stabilizer substrate.

Every instruction a :class:`repro.stab.circuit.Circuit` may contain is declared
here, together with the data that extraction and validation need:

* ``kind`` drives dispatch in the DEM walk (:mod:`repro.stab.dem`),
* ``targets_per_op`` and ``num_probabilities`` validate targets and noise
  arguments.

The set mirrors the subset of Stim used by the paper's circuit generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GateDef", "GATES", "GateKind"]


class GateKind:
    """Enumeration of instruction families (plain strings for easy dispatch)."""

    CLIFFORD_1 = "clifford1"
    CLIFFORD_2 = "clifford2"
    RESET = "reset"
    MEASURE = "measure"
    NOISE_1 = "noise1"
    NOISE_2 = "noise2"
    ANNOTATION = "annotation"


@dataclass(frozen=True)
class GateDef:
    """Static description of one instruction type."""

    name: str
    kind: str
    #: number of qubit targets consumed per application (2 => target pairs)
    targets_per_op: int = 1
    #: number of probability arguments required (noise channels only)
    num_probabilities: int = 0
    #: human-readable note
    doc: str = ""
    aliases: tuple[str, ...] = field(default=())


def _g(*args, **kwargs) -> GateDef:
    return GateDef(*args, **kwargs)


GATES: dict[str, GateDef] = {}


def _register(gate: GateDef) -> None:
    GATES[gate.name] = gate
    for alias in gate.aliases:
        GATES[alias] = gate


# --- single-qubit Cliffords -------------------------------------------------
_register(_g("I", GateKind.CLIFFORD_1, doc="identity"))
_register(_g("X", GateKind.CLIFFORD_1, doc="Pauli X (frame-transparent)"))
_register(_g("Y", GateKind.CLIFFORD_1, doc="Pauli Y (frame-transparent)"))
_register(_g("Z", GateKind.CLIFFORD_1, doc="Pauli Z (frame-transparent)"))
_register(_g("H", GateKind.CLIFFORD_1, doc="Hadamard: X<->Z"))
_register(_g("S", GateKind.CLIFFORD_1, doc="phase gate: X->Y", aliases=("S_DAG",)))
_register(_g("SQRT_X", GateKind.CLIFFORD_1, doc="sqrt(X): Z->Y", aliases=("SQRT_X_DAG",)))

# --- two-qubit Cliffords ------------------------------------------------------
_register(_g("CX", GateKind.CLIFFORD_2, targets_per_op=2, doc="CNOT", aliases=("CNOT",)))
_register(_g("CZ", GateKind.CLIFFORD_2, targets_per_op=2, doc="controlled-Z"))
_register(_g("SWAP", GateKind.CLIFFORD_2, targets_per_op=2, doc="swap"))

# --- resets / measurements ----------------------------------------------------
_register(_g("R", GateKind.RESET, doc="reset to |0>", aliases=("RZ",)))
_register(_g("RX", GateKind.RESET, doc="reset to |+>"))
_register(_g("M", GateKind.MEASURE, doc="Z-basis measurement", aliases=("MZ",)))
_register(_g("MX", GateKind.MEASURE, doc="X-basis measurement"))
_register(_g("MR", GateKind.MEASURE, doc="Z measurement followed by reset"))

# --- noise channels -------------------------------------------------------------
_register(_g("X_ERROR", GateKind.NOISE_1, num_probabilities=1, doc="bit flip w.p. p"))
_register(_g("Y_ERROR", GateKind.NOISE_1, num_probabilities=1, doc="Y flip w.p. p"))
_register(_g("Z_ERROR", GateKind.NOISE_1, num_probabilities=1, doc="phase flip w.p. p"))
_register(
    _g(
        "DEPOLARIZE1",
        GateKind.NOISE_1,
        num_probabilities=1,
        doc="uniform X/Y/Z each w.p. p/3",
    )
)
_register(
    _g(
        "PAULI_CHANNEL_1",
        GateKind.NOISE_1,
        num_probabilities=3,
        doc="X w.p. px, Y w.p. py, Z w.p. pz",
    )
)
_register(
    _g(
        "DEPOLARIZE2",
        GateKind.NOISE_2,
        targets_per_op=2,
        num_probabilities=1,
        doc="uniform two-qubit Pauli (15 cases) each w.p. p/15",
    )
)

# --- annotations ---------------------------------------------------------------
_register(_g("TICK", GateKind.ANNOTATION, targets_per_op=0, doc="layer boundary"))
_register(_g("DETECTOR", GateKind.ANNOTATION, targets_per_op=0, doc="parity check of records"))
_register(
    _g(
        "OBSERVABLE_INCLUDE",
        GateKind.ANNOTATION,
        targets_per_op=0,
        doc="accumulate records into a logical observable",
    )
)
_register(_g("QUBIT_COORDS", GateKind.ANNOTATION, targets_per_op=0, doc="qubit coordinates"))

#: Pauli components (as (x_flip, z_flip) masks) of each one-qubit channel case.
ONE_QUBIT_PAULIS = {"X": (True, False), "Y": (True, True), "Z": (False, True)}

#: the 15 non-identity two-qubit Paulis as ((x1,z1),(x2,z2)) bit tuples.
TWO_QUBIT_PAULIS = [
    (p1, p2)
    for p1 in [(False, False), (True, False), (True, True), (False, True)]
    for p2 in [(False, False), (True, False), (True, True), (False, True)]
    if p1 != (False, False) or p2 != (False, False)
]
