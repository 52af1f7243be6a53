"""Rotated-surface-code geometry tests."""

import pytest
from pauli_oracle import PauliString

from repro.codes import PatchLayout, QubitRegistry, other_basis


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("v", ["X", "Z"])
def test_stabilizer_counts(d, v):
    lay = PatchLayout(0, d - 1, d, vertical_basis=v)
    counts = lay.stabilizer_counts()
    assert counts["X"] + counts["Z"] == d * d - 1


@pytest.mark.parametrize("d", [3, 5])
def test_balanced_types_for_odd_distance(d):
    lay = PatchLayout(0, d - 1, d, vertical_basis="X")
    counts = lay.stabilizer_counts()
    assert counts["X"] == counts["Z"]


def test_boundary_types():
    d = 5
    lay = PatchLayout(0, d - 1, d, vertical_basis="X")
    for p in lay.plaquettes:
        a, b = p.pos
        if b in (0, d) and p.weight == 2:
            assert p.basis == "X"
        if a in (0, d) and p.weight == 2:
            assert p.basis == "Z"


def test_plaquette_weights():
    d = 5
    lay = PatchLayout(0, d - 1, d, vertical_basis="Z")
    for p in lay.plaquettes:
        assert p.weight in (2, 4)
        assert len(p.slots) == 4


def test_schedule_layers_are_conflict_free():
    """No data qubit appears twice in the same CNOT time slot."""
    d = 7
    lay = PatchLayout(0, d - 1, d, vertical_basis="X")
    for slot in range(4):
        seen = set()
        for p in lay.plaquettes:
            coord = p.slots[slot]
            if coord is None:
                continue
            assert coord not in seen, f"slot {slot} reuses data {coord}"
            seen.add(coord)


def _to_pauli(layout, coords, basis, registry):
    n = len(registry)
    p = PauliString.identity(n)
    for c in coords:
        q = registry.data(c)
        if basis == "X":
            p.xs[q] = True
        else:
            p.zs[q] = True
    return p


@pytest.mark.parametrize("v", ["X", "Z"])
def test_stabilizers_commute_and_logicals_anticommute(v):
    d = 3
    lay = PatchLayout(0, d - 1, d, vertical_basis=v)
    registry = QubitRegistry()
    for c in lay.data_coords():
        registry.data(c)
    stabs = [_to_pauli(lay, p.data, p.basis, registry) for p in lay.plaquettes]
    for i, a in enumerate(stabs):
        for b in stabs[i + 1 :]:
            assert a.commutes_with(b)
    vert = _to_pauli(lay, lay.vertical_logical(), v, registry)
    horiz = _to_pauli(lay, lay.horizontal_logical(), other_basis(v), registry)
    for s in stabs:
        assert vert.commutes_with(s)
        assert horiz.commutes_with(s)
    assert not vert.commutes_with(horiz)


def test_merged_layout_is_superset_of_patches():
    d = 3
    v = "X"
    p_lay = PatchLayout(0, d - 1, d, vertical_basis=v)
    pp_lay = PatchLayout(d + 1, 2 * d, d, vertical_basis=v)
    merged = PatchLayout(0, 2 * d, d, vertical_basis=v)
    merged_by_pos = {p.pos: p for p in merged.plaquettes}
    for patch in (p_lay, pp_lay):
        for p in patch.plaquettes:
            assert p.pos in merged_by_pos
            assert merged_by_pos[p.pos].basis == p.basis
            # merged supports contain the standalone supports
            assert set(p.data) <= set(merged_by_pos[p.pos].data)


def test_registry_is_stable_and_distinct():
    reg = QubitRegistry()
    a = reg.data((0, 0))
    b = reg.ancilla((0, 0))  # same position, different role
    assert a != b
    assert reg.data((0, 0)) == a
    assert len(reg) == 2


def test_invalid_layouts_rejected():
    with pytest.raises(ValueError):
        PatchLayout(0, 2, 3, vertical_basis="Q")
    with pytest.raises(ValueError):
        PatchLayout(3, 2, 3, vertical_basis="X")
    lay = PatchLayout(0, 2, 3, vertical_basis="X")
    with pytest.raises(ValueError):
        lay.vertical_logical(7)
    with pytest.raises(ValueError):
        lay.horizontal_logical(5)
