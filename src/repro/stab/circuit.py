"""Stabilizer-circuit intermediate representation.

A :class:`Circuit` is an ordered list of :class:`Instruction` objects drawn
from the gate set in :mod:`repro.stab.gates`.  It mirrors Stim's circuit
model: qubit targets, probabilistic noise channels, and measurement-record
annotations (``DETECTOR`` / ``OBSERVABLE_INCLUDE``) that downstream tools turn
into detector error models.

Differences from Stim kept deliberately simple:

* measurement records are referenced by *absolute* index (the builder returns
  indices as measurements are appended), and
* detectors carry optional ``coords`` and a ``basis`` tag (``"X"``/``"Z"``)
  so decoders can select the CSS sub-problem they care about.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .gates import GATES, GateKind

__all__ = ["Instruction", "Circuit"]

#: gate kinds whose targets are qubit pairs, and those that act per qubit
_PAIR_KINDS = frozenset({GateKind.CLIFFORD_2, GateKind.NOISE_2})
_SINGLE_KINDS = frozenset(
    {GateKind.CLIFFORD_1, GateKind.RESET, GateKind.MEASURE, GateKind.NOISE_1}
)


@dataclass(frozen=True)
class Instruction:
    """One circuit instruction (gate, channel, or annotation)."""

    name: str
    targets: tuple[int, ...] = ()
    args: tuple[float, ...] = ()
    #: absolute measurement-record indices (DETECTOR / OBSERVABLE_INCLUDE)
    rec: tuple[int, ...] = ()
    #: free-form coordinates (DETECTOR / QUBIT_COORDS metadata)
    coords: tuple[float, ...] = ()
    #: CSS basis tag for detectors ("X" or "Z"), None when untagged
    basis: str | None = None
    #: observable id for OBSERVABLE_INCLUDE
    obs_index: int = -1

    @property
    def gate(self):
        return GATES[self.name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.name]
        if self.args:
            parts.append("(" + ",".join(f"{a:g}" for a in self.args) + ")")
        if self.targets:
            parts.append(" " + " ".join(str(t) for t in self.targets))
        if self.rec:
            parts.append(" rec" + str(list(self.rec)))
        if self.obs_index >= 0:
            parts.append(f" obs={self.obs_index}")
        return "".join(parts)


@dataclass
class DetectorInfo:
    """Metadata describing one detector declaration."""

    rec: tuple[int, ...]
    coords: tuple[float, ...]
    basis: str | None


class Circuit:
    """Mutable stabilizer circuit with measurement-record tracking."""

    def __init__(self) -> None:
        self.instructions: list[Instruction] = []
        self.num_qubits = 0
        self.num_measurements = 0
        self.detectors: list[DetectorInfo] = []
        self.num_observables = 0
        self.qubit_coords: dict[int, tuple[float, ...]] = {}

    # -- construction ------------------------------------------------------

    def append(
        self,
        name: str,
        targets: Sequence[int] = (),
        args: Sequence[float] = (),
        *,
        rec: Sequence[int] = (),
        coords: Sequence[float] = (),
        basis: str | None = None,
        obs_index: int | None = None,
    ) -> list[int]:
        """Append one instruction; returns new measurement-record indices."""
        gate = GATES.get(name)
        if gate is None:
            raise ValueError(f"unknown instruction {name!r}")
        targets = tuple(map(int, targets))
        args = tuple(map(float, args))
        rec_t = tuple(map(int, rec))
        self._validate(name, gate, targets, args, rec_t)

        new_records: list[int] = []
        kind = gate.kind
        if kind == GateKind.MEASURE:
            start = self.num_measurements
            self.num_measurements = start + len(targets)
            new_records = list(range(start, self.num_measurements))
        elif kind == GateKind.ANNOTATION:
            if name == "DETECTOR":
                self.detectors.append(DetectorInfo(rec_t, tuple(coords), basis))
            elif name == "OBSERVABLE_INCLUDE":
                if obs_index is None:
                    raise ValueError("OBSERVABLE_INCLUDE requires obs_index")
                self.num_observables = max(self.num_observables, int(obs_index) + 1)
            elif name == "QUBIT_COORDS":
                for t in targets:
                    self.qubit_coords[t] = tuple(coords)
        if targets:
            self.num_qubits = max(self.num_qubits, max(targets) + 1)

        self.instructions.append(
            Instruction(
                name=name,
                targets=targets,
                args=args,
                rec=rec_t,
                coords=tuple(map(float, coords)),
                basis=basis,
                obs_index=-1 if obs_index is None else int(obs_index),
            )
        )
        return new_records

    def _validate(self, name, gate, targets, args, rec) -> None:
        kind = gate.kind
        if kind in _PAIR_KINDS:
            if len(targets) == 0 or len(targets) % 2 != 0:
                raise ValueError(f"{name} needs an even, non-zero number of targets")
            if any(map(operator.eq, targets[::2], targets[1::2])):
                raise ValueError(f"{name} cannot target a qubit pair (q, q)")
        elif kind in _SINGLE_KINDS:
            if len(targets) == 0:
                raise ValueError(f"{name} needs at least one target")
            if kind != GateKind.NOISE_1 and len(set(targets)) != len(targets):
                # the simulators apply each layer as one vectorized update,
                # which would act once on a repeated qubit instead of twice
                raise ValueError(f"{name} cannot target the same qubit twice")
        if gate.num_probabilities != len(args):
            raise ValueError(
                f"{name} takes {gate.num_probabilities} probability args, got {len(args)}"
            )
        # min/max skip a NaN unless it comes first, so NaN is checked apart
        if args and (min(args) < 0.0 or max(args) > 1.0 or any(map(math.isnan, args))):
            raise ValueError(f"{name} probabilities must lie in [0, 1]")
        if targets and min(targets) < 0:
            raise ValueError("qubit targets must be non-negative")
        if rec and name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
            if min(rec) < 0 or max(rec) >= self.num_measurements:
                raise ValueError(f"{name} references measurement records that do not exist yet")

    # convenience wrappers -------------------------------------------------

    def tick(self) -> None:
        """Append a ``TICK``: the boundary between two gate layers."""
        self.append("TICK")

    def detector(
        self,
        rec: Sequence[int],
        *,
        coords: Sequence[float] = (),
        basis: str | None = None,
    ) -> None:
        """Declare a parity check over measurement records."""
        self.append("DETECTOR", rec=rec, coords=coords, basis=basis)

    def observable_include(self, obs_index: int, rec: Sequence[int]) -> None:
        """Accumulate measurement records into a logical observable."""
        self.append("OBSERVABLE_INCLUDE", rec=rec, obs_index=obs_index)

    def extend(self, other: "Circuit") -> None:
        """Append a standalone circuit, shifting its record/observable indices."""
        offset = self.num_measurements
        for inst in other.instructions:
            self.append(
                inst.name,
                inst.targets,
                inst.args,
                rec=tuple(r + offset for r in inst.rec),
                coords=inst.coords,
                basis=inst.basis,
                obs_index=None if inst.obs_index < 0 else inst.obs_index,
            )

    # -- queries -----------------------------------------------------------

    @property
    def num_detectors(self) -> int:
        return len(self.detectors)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def count(self, name: str) -> int:
        """Number of applications (per target group) of instruction ``name``."""
        gate = GATES.get(name)
        if gate is None:
            raise ValueError(f"unknown instruction {name!r}")
        span = max(gate.targets_per_op, 1)
        return sum(
            len(inst.targets) // span if inst.targets else 1
            for inst in self.instructions
            if inst.name == name
        )

    def noise_channels(self) -> Iterable[tuple[int, Instruction]]:
        """(position, instruction) pairs for every noise channel."""
        for i, inst in enumerate(self.instructions):
            if inst.gate.kind in (GateKind.NOISE_1, GateKind.NOISE_2):
                yield i, inst

    def without_noise(self) -> "Circuit":
        """Copy of the circuit with every noise channel removed."""
        out = Circuit()
        for inst in self.instructions:
            if inst.gate.kind in (GateKind.NOISE_1, GateKind.NOISE_2):
                continue
            out.append(
                inst.name,
                inst.targets,
                inst.args,
                rec=inst.rec,
                coords=inst.coords,
                basis=inst.basis,
                obs_index=None if inst.obs_index < 0 else inst.obs_index,
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({len(self.instructions)} instructions, {self.num_qubits} qubits, "
            f"{self.num_measurements} measurements, {self.num_detectors} detectors, "
            f"{self.num_observables} observables)"
        )

    def to_text(self) -> str:
        """Stim-flavoured textual dump (for debugging and golden tests)."""
        lines = []
        for inst in self.instructions:
            parts = [inst.name]
            if inst.args:
                parts[0] += "(" + ", ".join(f"{a:g}" for a in inst.args) + ")"
            parts.extend(str(t) for t in inst.targets)
            parts.extend(f"rec[{r}]" for r in inst.rec)
            if inst.obs_index >= 0:
                parts.insert(1, str(inst.obs_index))
            lines.append(" ".join(parts))
        return "\n".join(lines)
