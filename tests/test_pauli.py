"""Pauli-string algebra tests, including hypothesis group-law checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pauli_oracle import PauliString


def test_identity_construction():
    p = PauliString.identity(4)
    assert p.num_qubits == 4
    assert p.weight == 0
    assert p.label() == "+IIII"


def test_from_label_round_trip():
    for label in ("+XIZY", "-YY", "+IIII", "+Z"):
        assert PauliString.from_label(label).label() == label


def test_from_label_rejects_garbage():
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")


def test_single_qubit_embedding():
    p = PauliString.single(3, 1, "Y")
    assert p.label() == "+IYI"
    assert p.weight == 1


def test_known_products():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    y = PauliString.from_label("Y")
    assert (x * z).label() == "-iY"
    assert (z * x).label() == "+iY"
    assert (x * y).label() == "+iZ"
    assert (x * x).label() == "+I"


def test_commutation():
    assert not PauliString.from_label("X").commutes_with(PauliString.from_label("Z"))
    assert PauliString.from_label("XX").commutes_with(PauliString.from_label("ZZ"))
    assert PauliString.from_label("XI").commutes_with(PauliString.from_label("IZ"))


def test_support():
    p = PauliString.from_label("IXIZ")
    assert list(p.support()) == [1, 3]


def test_mismatched_sizes_raise():
    with pytest.raises(ValueError):
        PauliString.from_label("XX") * PauliString.from_label("X")
    with pytest.raises(ValueError):
        PauliString.from_label("XX").commutes_with(PauliString.from_label("X"))


def test_hash_and_eq():
    a = PauliString.from_label("XZ")
    b = PauliString.from_label("XZ")
    assert a == b and hash(a) == hash(b)
    assert a != PauliString.from_label("-XZ")


@st.composite
def pauli_strings(draw, n=4):
    xs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    zs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    phase = draw(st.integers(0, 3))
    return PauliString(np.array(xs), np.array(zs), phase)


@given(pauli_strings(), pauli_strings(), pauli_strings())
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(pauli_strings())
def test_square_is_plus_or_minus_identity(p):
    sq = p * p
    assert sq.weight == 0
    assert sq.phase in (0, 2)


@given(pauli_strings(), pauli_strings())
def test_commute_or_anticommute(a, b):
    ab = a * b
    ba = b * a
    if a.commutes_with(b):
        assert ab == ba
    else:
        assert ab.phase == (ba.phase + 2) % 4
        assert np.array_equal(ab.xs, ba.xs) and np.array_equal(ab.zs, ba.zs)
