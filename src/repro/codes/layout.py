"""Rotated surface-code geometry.

Coordinates: data qubit ``(i, j)`` sits at column ``i``, row ``j`` of a global
integer grid; plaquette ``(a, b)`` sits at the corner touching data
``(a-1..a, b-1..b)``.  The stabilizer type follows the global checkerboard
``X iff (a+b) even``, so patches placed side by side on the same grid can be
merged seamlessly (their plaquettes are literally subsets of the merged
patch's plaquettes).

Boundary convention: a patch keeps top/bottom boundary checks of its
``vertical_basis`` V (the basis of the logical operator running vertically,
parallel to a merge seam) and left/right boundary checks of the complementary
basis.  Lattice surgery between two side-by-side patches therefore measures
the product of their vertical logicals.

CNOT schedules use the standard hook-avoiding orders (X: NW,NE,SW,SE;
Z: NW,SW,NE,SE); the fault-distance test in ``tests/test_distance.py``
verifies the resulting circuits reach full code distance.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Plaquette", "PatchLayout", "QubitRegistry", "other_basis"]

Coord = tuple[int, int]

#: CNOT slot offsets into the 2x2 cell
_NW, _NE, _SW, _SE = (-1, -1), (0, -1), (-1, 0), (0, 0)
#: schedules whose first two slots are horizontal / vertical neighbours.  A
#: mid-cycle ancilla fault ("hook") couples the first two slots, so each
#: stabilizer basis must traverse them *perpendicular* to its own logical:
#: the vertical-logical basis uses the horizontal-first order and vice versa.
_HORIZONTAL_FIRST = (_NW, _NE, _SW, _SE)
_VERTICAL_FIRST = (_NW, _SW, _NE, _SE)


def other_basis(basis: str) -> str:
    """The complementary CSS basis ('X' <-> 'Z')."""
    return "Z" if basis == "X" else "X"


@dataclass(frozen=True)
class Plaquette:
    """One stabilizer: position, basis, and data slots in schedule order."""

    pos: tuple[int, int]
    basis: str
    #: length-4 tuple; ``None`` marks an unused slot (boundary checks)
    slots: tuple[Coord | None, ...]

    @property
    def data(self) -> tuple[Coord, ...]:
        """Coordinates of the plaquette's data qubits, in schedule order."""
        return tuple(c for c in self.slots if c is not None)

    @property
    def weight(self) -> int:
        return len(self.data)


class PatchLayout:
    """A rectangular rotated-surface-code patch on the global grid."""

    def __init__(self, col0: int, col1: int, rows: int, vertical_basis: str):
        if vertical_basis not in ("X", "Z"):
            raise ValueError("vertical_basis must be 'X' or 'Z'")
        if col1 < col0 or rows < 1:
            raise ValueError("empty patch")
        self.col0 = col0
        self.col1 = col1
        self.rows = rows
        self.vertical_basis = vertical_basis
        self.horizontal_basis = other_basis(vertical_basis)
        self.plaquettes = self._build_plaquettes()

    # -- geometry ------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.col1 - self.col0 + 1

    @property
    def distance(self) -> int:
        """Code distance of a square patch (min of the two dimensions)."""
        return min(self.width, self.rows)

    def data_coords(self) -> list[Coord]:
        """All data-qubit coordinates of the patch."""
        return [(i, j) for i in range(self.col0, self.col1 + 1) for j in range(self.rows)]

    def plaquette_basis(self, a: int, b: int) -> str:
        """Checkerboard stabilizer basis at plaquette position (a, b)."""
        return "X" if (a + b) % 2 == 0 else "Z"

    def _build_plaquettes(self) -> list[Plaquette]:
        out = []
        for a in range(self.col0, self.col1 + 2):
            for b in range(self.rows + 1):
                plq = self._make_plaquette(a, b)
                if plq is not None:
                    out.append(plq)
        return out

    def _make_plaquette(self, a: int, b: int) -> Plaquette | None:
        basis = self.plaquette_basis(a, b)
        order = _HORIZONTAL_FIRST if basis == self.vertical_basis else _VERTICAL_FIRST
        slots = []
        n_in = 0
        for di, dj in order:
            i, j = a + di, b + dj
            if self.col0 <= i <= self.col1 and 0 <= j < self.rows:
                slots.append((i, j))
                n_in += 1
            else:
                slots.append(None)
        if n_in < 2:
            return None
        on_lr = a == self.col0 or a == self.col1 + 1
        on_tb = b == 0 or b == self.rows
        if on_lr and on_tb:
            return None
        if on_tb and basis != self.vertical_basis:
            return None
        if on_lr and basis != self.horizontal_basis:
            return None
        return Plaquette(pos=(a, b), basis=basis, slots=tuple(slots))

    # -- logical operators -------------------------------------------------------

    def vertical_logical(self, column: int | None = None) -> list[Coord]:
        """Data support of the vertical logical (terminates top/bottom)."""
        c = self.col0 if column is None else column
        if not self.col0 <= c <= self.col1:
            raise ValueError("column outside patch")
        return [(c, j) for j in range(self.rows)]

    def horizontal_logical(self, row: int = 0) -> list[Coord]:
        """Data support of the horizontal logical (terminates left/right)."""
        if not 0 <= row < self.rows:
            raise ValueError("row outside patch")
        return [(i, row) for i in range(self.col0, self.col1 + 1)]

    def stabilizer_counts(self) -> dict[str, int]:
        """Number of X and Z stabilizers, as a dict."""
        counts = {"X": 0, "Z": 0}
        for p in self.plaquettes:
            counts[p.basis] += 1
        return counts


class QubitRegistry:
    """Stable coordinate -> qubit-index assignment shared across layouts."""

    def __init__(self) -> None:
        self._index: dict[tuple[str, tuple[int, int]], int] = {}

    def data(self, coord: Coord) -> int:
        """Qubit index of the data qubit at ``coord``."""
        return self._get(("d", coord))

    def ancilla(self, pos: tuple[int, int]) -> int:
        """Qubit index of the ancilla at plaquette position ``pos``."""
        return self._get(("a", pos))

    def _get(self, key) -> int:
        if key not in self._index:
            self._index[key] = len(self._index)
        return self._index[key]

    def __len__(self) -> int:
        return len(self._index)

    def coords(self) -> dict[int, tuple[str, tuple[int, int]]]:
        """Reverse map: qubit index -> (role, coordinate)."""
        return {v: k for k, v in self._index.items()}
