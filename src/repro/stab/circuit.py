"""Stabilizer-circuit intermediate representation.

A :class:`Circuit` is an ordered sequence of instructions drawn from the gate
set in :mod:`repro.stab.gates`.  It mirrors Stim's circuit model: qubit
targets, probabilistic noise channels, and measurement-record annotations
(``DETECTOR`` / ``OBSERVABLE_INCLUDE``) that downstream tools turn into
detector error models.

Differences from Stim kept deliberately simple:

* measurement records are referenced by *absolute* index (the builder returns
  indices as measurements are appended), and
* detectors carry optional ``coords`` and a ``basis`` tag (``"X"``/``"Z"``)
  so decoders can select the CSS sub-problem they care about.

Storage is columnar, like Stim's flat operation and target arrays (Gidney,
arXiv:2103.02202).  :meth:`Circuit.columns` returns the columns as numpy
arrays (:class:`CircuitColumns`): one opcode per instruction (its index in
:data:`NAMES`), ``int64`` CSR lists of the instructions' qubit targets and
measurement records, a ``float64`` CSR list of their arguments, and per
detector one ``float64`` coords row and one basis tag.  As in Stim, the
arguments are a noise channel's probabilities, an ``OBSERVABLE_INCLUDE``'s
observable index and a ``QUBIT_COORDS``'s coordinates.
:attr:`Circuit.instructions` and :attr:`Circuit.detectors` are read-only
lists of :class:`Instruction` / :class:`DetectorInfo` objects, built on
first use and cached until the next append.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .._util import csr_indptr, csr_take, csr_tuples
from .gates import GATES, GateKind

__all__ = ["Instruction", "DetectorInfo", "Circuit", "CircuitColumns", "NAMES"]

#: instruction names in opcode order; an alias keeps its own opcode, so an
#: instruction reads back under the name it was appended with
NAMES = tuple(GATES)
OPCODES = {name: code for code, name in enumerate(NAMES)}
_DETECTOR = OPCODES["DETECTOR"]
_OBSERVABLE = OPCODES["OBSERVABLE_INCLUDE"]
_QUBIT_COORDS = OPCODES["QUBIT_COORDS"]
_IS_NOISE = np.array(
    [GATES[n].kind in (GateKind.NOISE_1, GateKind.NOISE_2) for n in NAMES], dtype=bool
)
#: shared by every append without targets; an empty array is never stored
_NO_TARGETS = np.zeros(0, dtype=np.int64)
_NO_TARGETS.setflags(write=False)

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


class CircuitColumns(NamedTuple):
    """A circuit's columns; instruction ``i``'s targets are
    ``targets[tptr[i]:tptr[i + 1]]``, and likewise for args and records."""

    ops: np.ndarray
    tptr: np.ndarray
    targets: np.ndarray
    aptr: np.ndarray
    args: np.ndarray
    rptr: np.ndarray
    recs: np.ndarray
    #: detector ``j``'s coords are ``coords[dptr[j]:dptr[j + 1]]``
    dptr: np.ndarray
    coords: np.ndarray
    basis: tuple[str | None, ...]


class Circuit:
    """Mutable stabilizer circuit with measurement-record tracking."""

    def __init__(self) -> None:
        self.num_qubits = 0
        self.num_measurements = 0
        self.num_observables = 0
        self.qubit_coords: dict[int, tuple[float, ...]] = {}
        # the columns while they grow: row lengths and flat values
        self._ops: list[int] = []
        self._tlen: list[int] = []
        self._tchunks: list[np.ndarray] = []
        self._alen: list[int] = []
        self._args: list[float] = []
        self._rlen: list[int] = []
        self._recs: list[int] = []
        self._dlen: list[int] = []
        self._coords: list[float] = []
        self._basis: list[str | None] = []
        #: columns and object views, dropped by every append
        self._views: dict[str, object] = {}

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
        code = OPCODES.get(name)
        if code is None:
            raise ValueError(f"unknown instruction {name!r}")
        gate = GATES[name]
        t = np.array(targets, dtype=np.int64).reshape(-1) if len(targets) else _NO_TARGETS
        a = tuple(map(float, args))
        _validate(name, gate, t, a)
        if code == _DETECTOR:
            if t.size or obs_index is not None:
                raise ValueError("DETECTOR takes only records, coords and a basis")
            self.append_detectors([rec], coords=[coords], basis=basis)
            return []
        if basis is not None or (len(coords) and code != _QUBIT_COORDS):
            raise ValueError(f"{name} takes no detector coords or basis")
        if (len(rec) or obs_index is not None) and code != _OBSERVABLE:
            raise ValueError(f"{name} takes no records or observable index")
        if t.size and gate.kind == GateKind.ANNOTATION and code != _QUBIT_COORDS:
            raise ValueError(f"{name} takes no qubit targets")

        r: list[int] = []
        if code == _OBSERVABLE:
            r = list(map(int, rec))
            if r and (min(r) < 0 or max(r) >= self.num_measurements):
                raise ValueError(f"{name} references measurement records that do not exist yet")
            if obs_index is None:
                raise ValueError("OBSERVABLE_INCLUDE requires obs_index")
            a = (float(int(obs_index)),)
            self.num_observables = max(self.num_observables, int(obs_index) + 1)
        elif code == _QUBIT_COORDS:
            a = tuple(map(float, coords))
            for q in t.tolist():
                self.qubit_coords[q] = a

        new_records: list[int] = []
        if gate.kind == GateKind.MEASURE:
            start = self.num_measurements
            self.num_measurements = start + t.size
            new_records = list(range(start, self.num_measurements))
        if t.size:
            self.num_qubits = max(self.num_qubits, int(t.max()) + 1)
            t.setflags(write=False)
            self._tchunks.append(t)
        self._ops.append(code)
        self._tlen.append(t.size)
        self._alen.append(len(a))
        self._args.extend(a)
        self._rlen.append(len(r))
        self._recs.extend(r)
        self._views.clear()
        return new_records

    def append_detectors(
        self,
        rec: Sequence[Sequence[int]],
        *,
        coords: Sequence[Sequence[float]] = (),
        basis: str | None = None,
    ) -> range:
        """Declare one detector per row of ``rec`` as one block.

        ``coords`` is empty or holds one coordinates row per detector; every
        detector of the block gets the tag ``basis``.  The block is checked
        as a whole before any of it is stored, so a rejected block leaves
        the circuit unchanged.  Returns the new detectors' indices.
        """
        lens = [len(r) for r in rec]
        flat = list(map(int, itertools.chain.from_iterable(rec)))
        if flat and (min(flat) < 0 or max(flat) >= self.num_measurements):
            raise ValueError("DETECTOR references measurement records that do not exist yet")
        n = len(lens)
        if len(coords) == 0:
            widths = [0] * n
        elif len(coords) == n:
            widths = [len(c) for c in coords]
        else:
            raise ValueError(f"{len(coords)} coords rows for {n} detectors")
        values = list(map(float, itertools.chain.from_iterable(coords)))
        start = self.num_detectors
        zeros = [0] * n
        self._ops.extend([_DETECTOR] * n)
        self._tlen.extend(zeros)
        self._alen.extend(zeros)
        self._rlen.extend(lens)
        self._recs.extend(flat)
        self._dlen.extend(widths)
        self._coords.extend(values)
        self._basis.extend([basis] * n)
        self._views.clear()
        return range(start, start + n)

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
        self.append_detectors([rec], coords=[coords], basis=basis)

    def observable_include(self, obs_index: int, rec: Sequence[int]) -> None:
        """Accumulate measurement records into a logical observable."""
        self.append("OBSERVABLE_INCLUDE", rec=rec, obs_index=obs_index)

    def extend(self, other: "Circuit") -> None:
        """Append a standalone circuit, shifting its measurement records.

        Records move past this circuit's measurements.  Observable indices
        stay as they are: ``other``'s observable ``k`` accumulates onto this
        circuit's observable ``k``.  ``other`` was checked as it was built,
        so its builder lists are copied as they are; the two circuits then
        share ``other``'s read-only target chunks.
        """
        recs = [r + self.num_measurements for r in other._recs]
        self._ops.extend(other._ops)
        self._tlen.extend(other._tlen)
        self._tchunks.extend(other._tchunks)
        self._alen.extend(other._alen)
        self._args.extend(other._args)
        self._rlen.extend(other._rlen)
        self._recs.extend(recs)
        self._dlen.extend(other._dlen)
        self._coords.extend(other._coords)
        self._basis.extend(other._basis)
        self.num_qubits = max(self.num_qubits, other.num_qubits)
        self.num_measurements += other.num_measurements
        self.num_observables = max(self.num_observables, other.num_observables)
        self.qubit_coords.update(other.qubit_coords)
        self._views.clear()

    # -- queries -----------------------------------------------------------

    def columns(self) -> CircuitColumns:
        """The columns as numpy arrays (built once per append, then shared)."""
        cols = self._views.get("columns")
        if cols is None:
            if len(self._tchunks) > 1:
                merged = np.concatenate(self._tchunks)
                merged.setflags(write=False)
                self._tchunks = [merged]
            cols = self._views["columns"] = CircuitColumns(
                np.array(self._ops, dtype=np.int64),
                csr_indptr(self._tlen),
                self._tchunks[0] if self._tchunks else _NO_TARGETS,
                csr_indptr(self._alen),
                np.array(self._args, dtype=np.float64),
                csr_indptr(self._rlen),
                np.array(self._recs, dtype=np.int64),
                csr_indptr(self._dlen),
                np.array(self._coords, dtype=np.float64),
                tuple(self._basis),
            )
        return cols

    @property
    def instructions(self) -> list[Instruction]:
        """The instructions as :class:`Instruction` objects (built once, then cached)."""
        out = self._views.get("instructions")
        if out is None:
            out = self._views["instructions"] = self._build_instructions()
        return out

    def _build_instructions(self) -> list[Instruction]:
        cols = self.columns()
        details = zip(self.detector_coords, cols.basis)
        out = []
        for code, t, a, r in zip(
            cols.ops.tolist(),
            csr_tuples(cols.tptr, cols.targets),
            csr_tuples(cols.aptr, cols.args),
            csr_tuples(cols.rptr, cols.recs),
        ):
            name = NAMES[code]
            if code == _DETECTOR:
                c, b = next(details)
                out.append(Instruction(name, t, a, r, c, b))
            elif code == _OBSERVABLE:
                out.append(Instruction(name, t, (), r, obs_index=int(a[0])))
            elif code == _QUBIT_COORDS:
                out.append(Instruction(name, t, (), r, coords=a))
            else:
                out.append(Instruction(name, t, a, r))
        return out

    @property
    def detectors(self) -> list[DetectorInfo]:
        """The detectors as :class:`DetectorInfo` objects (built once, then cached)."""
        out = self._views.get("detectors")
        if out is None:
            cols = self.columns()
            rows = np.flatnonzero(cols.ops == _DETECTOR)
            recs = csr_tuples(*csr_take(cols.rptr, cols.recs, rows))
            out = self._views["detectors"] = [
                DetectorInfo(r, c, b)
                for r, c, b in zip(recs, self.detector_coords, cols.basis)
            ]
        return out

    @property
    def detector_coords(self) -> list[tuple[float, ...]]:
        """Each detector's coords as a tuple of floats."""
        cols = self.columns()
        return csr_tuples(cols.dptr, cols.coords)

    @property
    def num_detectors(self) -> int:
        return len(self._basis)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self._ops)

    def count(self, name: str) -> int:
        """Number of applications (per target group) of instruction ``name``."""
        code = OPCODES.get(name)
        if code is None:
            raise ValueError(f"unknown instruction {name!r}")
        span = max(GATES[name].targets_per_op, 1)
        cols = self.columns()
        lens = np.diff(cols.tptr)[cols.ops == code]
        return int(np.where(lens > 0, lens // span, 1).sum())

    def without_noise(self) -> "Circuit":
        """Copy of the circuit with every noise channel removed."""
        cols = self.columns()
        rows = np.flatnonzero(~_IS_NOISE[cols.ops])
        tptr, targets = csr_take(cols.tptr, cols.targets, rows)
        aptr, args = csr_take(cols.aptr, cols.args, rows)
        rptr, recs = csr_take(cols.rptr, cols.recs, rows)
        out = Circuit()
        out._ops = cols.ops[rows].tolist()
        out._tlen = np.diff(tptr).tolist()
        if targets.size:
            targets.setflags(write=False)
            out._tchunks = [targets]
            out.num_qubits = int(targets.max()) + 1
        out._alen = np.diff(aptr).tolist()
        out._args = args.tolist()
        out._rlen = np.diff(rptr).tolist()
        out._recs = recs.tolist()
        out._dlen = list(self._dlen)
        out._coords = list(self._coords)
        out._basis = list(self._basis)
        # measurements and observable includes are not noise, so all stay
        out.num_measurements = self.num_measurements
        out.num_observables = self.num_observables
        out.qubit_coords = dict(self.qubit_coords)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({len(self)} instructions, {self.num_qubits} qubits, "
            f"{self.num_measurements} measurements, {self.num_detectors} detectors, "
            f"{self.num_observables} observables)"
        )


def _validate(name: str, gate, t: np.ndarray, args: tuple[float, ...]) -> None:
    """Reject a malformed target list or argument list of one instruction."""
    kind = gate.kind
    n = t.size
    if kind in _PAIR_KINDS:
        if n == 0 or n % 2 != 0:
            raise ValueError(f"{name} needs an even, non-zero number of targets")
        if (t[0::2] == t[1::2]).any():
            raise ValueError(f"{name} cannot target a qubit pair (q, q)")
    elif kind in _SINGLE_KINDS:
        if n == 0:
            raise ValueError(f"{name} needs at least one target")
        if kind != GateKind.NOISE_1 and n > 1:
            s = np.sort(t)
            if (s[1:] == s[:-1]).any():
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
    if n and t.min() < 0:
        raise ValueError("qubit targets must be non-negative")
