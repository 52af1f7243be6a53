"""Circuit IR tests: validation, record tracking, composition."""

import numpy as np
import pytest

from repro.stab import Circuit
from repro.stab.circuit import CircuitColumns
from repro.stab.gates import GATES, GateKind


def test_measurement_records_are_sequential():
    c = Circuit()
    c.append("R", [0, 1, 2])
    first = c.append("M", [0, 1])
    second = c.append("M", [2])
    assert first == [0, 1]
    assert second == [2]
    assert c.num_measurements == 3


def test_detector_validation_rejects_future_records():
    c = Circuit()
    c.append("R", [0])
    with pytest.raises(ValueError):
        c.detector([0])  # no measurement yet
    c.append("M", [0])
    c.detector([0])
    assert c.num_detectors == 1


def test_unknown_instruction_rejected():
    c = Circuit()
    with pytest.raises(ValueError):
        c.append("FROBNICATE", [0])


def test_probability_arity_enforced():
    c = Circuit()
    with pytest.raises(ValueError):
        c.append("X_ERROR", [0])  # missing prob
    with pytest.raises(ValueError):
        c.append("PAULI_CHANNEL_1", [0], [0.1])  # needs three
    with pytest.raises(ValueError):
        c.append("X_ERROR", [0], [1.5])  # out of range


def test_two_qubit_targets_must_pair():
    c = Circuit()
    with pytest.raises(ValueError):
        c.append("CX", [0])
    with pytest.raises(ValueError):
        c.append("CX", [0, 0])
    c.append("CX", [0, 1, 2, 3])
    assert c.num_qubits == 4


@pytest.mark.parametrize("name", ["H", "S", "SQRT_X", "X", "R", "RX", "M", "MX", "MR"])
def test_single_qubit_layers_reject_repeated_targets(name):
    # a repeated qubit means "apply twice", which the vectorized simulators
    # would silently apply once
    c = Circuit()
    with pytest.raises(ValueError, match="same qubit twice"):
        c.append(name, [0, 1, 0])
    c.append(name, [0, 1])
    assert c.num_qubits == 2


def test_noise_and_chained_two_qubit_layers_may_repeat_qubits():
    c = Circuit()
    c.append("X_ERROR", [0, 0], [0.1])
    c.append("DEPOLARIZE2", [0, 1, 1, 2], [0.1])
    c.append("CX", [0, 1, 1, 2])
    assert len(c) == 3


def test_observable_requires_index():
    c = Circuit()
    c.append("R", [0])
    c.append("M", [0])
    with pytest.raises(ValueError):
        c.append("OBSERVABLE_INCLUDE", rec=[0])
    c.observable_include(2, [0])
    assert c.num_observables == 3


def _one_measurement() -> Circuit:
    c = Circuit()
    c.append("R", [0])
    c.append("M", [0])
    return c


@pytest.mark.parametrize(
    "name, targets, args, kwargs, message",
    [
        ("FROBNICATE", [0], [], {}, "unknown instruction 'FROBNICATE'"),
        ("CX", [0, 1, 2], [], {}, "CX needs an even, non-zero number of targets"),
        ("DEPOLARIZE2", [], [0.1], {}, "DEPOLARIZE2 needs an even, non-zero number"),
        ("CX", [0, 1, 2, 2], [], {}, r"CX cannot target a qubit pair \(q, q\)"),
        ("H", [], [], {}, "H needs at least one target"),
        ("MR", [0, 1, 0], [], {}, "MR cannot target the same qubit twice"),
        ("X_ERROR", [0], [], {}, "X_ERROR takes 1 probability args, got 0"),
        ("H", [0], [0.1], {}, "H takes 0 probability args, got 1"),
        ("X_ERROR", [0], [1.5], {}, r"X_ERROR probabilities must lie in \[0, 1\]"),
        ("X_ERROR", [0], [-0.1], {}, r"X_ERROR probabilities must lie in \[0, 1\]"),
        (
            "PAULI_CHANNEL_1",
            [0],
            [0.1, float("nan"), 0.1],
            {},
            r"PAULI_CHANNEL_1 probabilities must lie in \[0, 1\]",
        ),
        ("H", [-1], [], {}, "qubit targets must be non-negative"),
        ("CX", [0, -2], [], {}, "qubit targets must be non-negative"),
        ("X_ERROR", [3, -1], [0.1], {}, "qubit targets must be non-negative"),
        (
            "DETECTOR",
            [],
            [],
            {"rec": [-1]},
            "DETECTOR references measurement records that do not exist yet",
        ),
        (
            "DETECTOR",
            [],
            [],
            {"rec": [0, 1]},
            "DETECTOR references measurement records that do not exist yet",
        ),
        (
            "OBSERVABLE_INCLUDE",
            [],
            [],
            {"rec": [1], "obs_index": 0},
            "OBSERVABLE_INCLUDE references measurement records that do not exist yet",
        ),
        (
            "OBSERVABLE_INCLUDE",
            [],
            [],
            {"rec": [0]},
            "OBSERVABLE_INCLUDE requires obs_index",
        ),
    ],
)
def test_every_rejection_keeps_its_message(name, targets, args, kwargs, message):
    c = _one_measurement()
    before = list(c.instructions)
    with pytest.raises(ValueError, match=message):
        c.append(name, targets, args, **kwargs)
    # a rejected instruction leaves the circuit as it was
    assert c.instructions == before
    assert (c.num_qubits, c.num_measurements, c.num_detectors) == (1, 1, 0)


def test_numpy_integer_targets_and_records_are_stored_as_int():
    c = Circuit()
    c.append("R", np.array([0, 1], dtype=np.int64))
    recs = c.append("M", np.arange(2, dtype=np.int64))
    c.append("PAULI_CHANNEL_1", np.array([1], dtype=np.int32), np.array([0.1, 0.0, 0.2]))
    c.detector(np.array(recs, dtype=np.int64), coords=np.array([1, 2]))
    c.observable_include(np.int64(1), np.array([1], dtype=np.int64))
    for inst in c:
        assert all(type(t) is int for t in inst.targets)
        assert all(type(a) is float for a in inst.args)
        assert all(type(r) is int for r in inst.rec)
        assert all(type(x) is float for x in inst.coords)
        assert type(inst.obs_index) is int
    assert recs == [0, 1] and all(type(r) is int for r in recs)
    assert c.detectors[0].rec == (0, 1) and c.num_qubits == 2
    assert c.num_observables == 2 and type(c.num_qubits) is int


def test_count_counts_per_application():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("CX", [0, 1, 1, 0])
    c.append("H", [0, 1])
    assert c.count("CX") == 2
    assert c.count("H") == 2
    assert c.count("M") == 0


def test_without_noise_strips_channels_only():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [0.1])
    c.append("DEPOLARIZE1", [0], [0.1])
    m = c.append("M", [0])
    c.detector(m)
    clean = c.without_noise()
    assert clean.count("X_ERROR") == 0
    assert clean.count("M") == 1
    assert clean.num_detectors == 1


def test_extend_shifts_records_and_observables():
    a = Circuit()
    a.append("R", [0])
    ra = a.append("M", [0])
    a.detector(ra)
    a.observable_include(0, ra)

    b = Circuit()
    b.append("R", [0])
    rb = b.append("M", [0])
    b.detector(rb)
    b.observable_include(0, rb)

    a.extend(b)
    assert a.num_measurements == 2
    assert a.num_detectors == 2
    assert a.detectors[1].rec == (1,)


def test_qubit_coords_tracked():
    c = Circuit()
    c.append("QUBIT_COORDS", [3], coords=(1.0, 2.0))
    assert c.qubit_coords[3] == (1.0, 2.0)


def test_gate_table_consistency():
    for name, gate in GATES.items():
        assert gate.kind in vars(GateKind).values()
        if gate.kind in (GateKind.CLIFFORD_2, GateKind.NOISE_2):
            assert gate.targets_per_op == 2


def test_detector_coords_are_floats_everywhere():
    from repro.codes import memory_experiment
    from repro.noise import IBM, NoiseModel
    from repro.stab import circuit_to_dem

    generated = memory_experiment(3, 2, NoiseModel(hardware=IBM)).circuit
    given = _one_measurement()
    given.detector([0], coords=np.array([1, 2, 3]))
    given.detector([0], coords=(np.float32(0.5), 4))
    for c in (generated, given):
        from_instructions = [i.coords for i in c.instructions if i.name == "DETECTOR"]
        views = (
            [info.coords for info in c.detectors],
            from_instructions,
            circuit_to_dem(c).detector_coords,
        )
        for coords in views:
            assert coords == c.detector_coords
            assert all(type(x) is float for row in coords for x in row)
    assert given.detector_coords == [(1.0, 2.0, 3.0), (0.5, 4.0)]


def test_extend_accumulates_observables_onto_the_same_index():
    a = _one_measurement()
    a.observable_include(0, [0])
    b = _one_measurement()
    b.observable_include(0, [0])
    a.extend(b)
    observables = [i for i in a.instructions if i.name == "OBSERVABLE_INCLUDE"]
    assert a.num_observables == 1
    assert [i.obs_index for i in observables] == [0, 0]
    assert [i.rec for i in observables] == [(0,), (1,)]


def test_append_detectors_declares_a_block():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("M", [0, 1])
    new = c.append_detectors([[0], [0, 1]], coords=[(0, 0, 1), (1, 0, 1)], basis="Z")
    assert new == range(0, 2)
    assert [(d.rec, d.coords, d.basis) for d in c.detectors] == [
        ((0,), (0.0, 0.0, 1.0), "Z"),
        ((0, 1), (1.0, 0.0, 1.0), "Z"),
    ]
    assert c.append_detectors([[1]]) == range(2, 3)
    assert c.detectors[2].coords == () and c.detectors[2].basis is None


@pytest.mark.parametrize(
    "rec, coords, message",
    [
        ([[0], [0, 1]], (), "DETECTOR references measurement records that do not exist yet"),
        ([[0], [-1]], (), "DETECTOR references measurement records that do not exist yet"),
        ([[0], [0]], [(1, 2)], "1 coords rows for 2 detectors"),
    ],
)
def test_a_rejected_detector_block_leaves_the_circuit_unchanged(rec, coords, message):
    c = _one_measurement()
    c.detector([0], coords=(0, 0), basis="X")
    before = list(c.instructions)
    counts = (len(c), c.num_qubits, c.num_measurements, c.num_detectors)
    with pytest.raises(ValueError, match=message):
        c.append_detectors(rec, coords=coords, basis="Z")
    assert (len(c), c.num_qubits, c.num_measurements, c.num_detectors) == counts
    assert c.instructions == before
    assert c.detector_coords == [(0.0, 0.0)] and c.columns().basis == ("X",)


def test_extend_and_without_noise_copy_the_columns():
    a = Circuit()
    a.append("R", [0, 1])
    a.append("DEPOLARIZE2", [0, 1], [0.01])
    a.append("QUBIT_COORDS", [1], coords=(2, 3))
    rec = a.append("MX", [0, 1])
    a.detector(rec, coords=(0.5,), basis="X")
    a.observable_include(1, rec[:1])
    both = Circuit()
    both.extend(a)
    both.extend(a)
    assert both.num_measurements == 4 and both.num_observables == 2
    assert both.instructions[len(a):] == [
        i if not i.rec else type(i)(**{**vars(i), "rec": tuple(r + 2 for r in i.rec)})
        for i in a.instructions
    ]
    clean = a.without_noise()
    assert clean.instructions == [i for i in a.instructions if i.name != "DEPOLARIZE2"]
    assert clean.qubit_coords == {1: (2.0, 3.0)} and clean.num_qubits == 2
    assert (clean.num_measurements, clean.num_observables) == (2, 2)


def _every_column_kind():
    c = Circuit()
    c.append("QUBIT_COORDS", [2], coords=(1, 0.5))
    c.append("R", [0, 1, 2])
    c.append("H", [1])
    c.append("DEPOLARIZE1", [1], [0.01])
    c.append("CX", [1, 0, 2, 3])
    c.append("PAULI_CHANNEL_1", [0, 3], [0.01, 0.02, 0.03])
    rec = c.append("MR", [0, 3])
    c.append_detectors([rec, rec[:1]], coords=[(0, 1, 2), (3.5,)], basis="Z")
    c.tick()
    rec += c.append("MX", [1])
    c.detector(rec, basis="X")
    c.observable_include(1, rec[1:])
    return c


def test_extend_equals_appending_the_instructions_one_by_one():
    src = _every_column_kind()
    spliced, appended = _one_measurement(), _one_measurement()
    spliced.extend(src)
    shift = 1
    for inst in src.instructions:
        rec = [r + shift for r in inst.rec]
        if inst.name == "DETECTOR":
            appended.detector(rec, coords=inst.coords, basis=inst.basis)
        elif inst.name == "OBSERVABLE_INCLUDE":
            appended.observable_include(inst.obs_index, rec)
        else:
            appended.append(inst.name, inst.targets, inst.args, coords=inst.coords)
    for name, got, want in zip(
        CircuitColumns._fields, spliced.columns(), appended.columns()
    ):
        if name == "basis":
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    counts = ("num_qubits", "num_measurements", "num_detectors", "num_observables")
    assert [getattr(spliced, k) for k in counts] == [getattr(appended, k) for k in counts]
    assert spliced.qubit_coords == appended.qubit_coords == {2: (1.0, 0.5)}


def test_target_chunks_shared_by_a_splice_are_read_only():
    body = _every_column_kind()
    replayed = Circuit()
    replayed.extend(body)
    replayed.extend(body)
    for circuit in (body, replayed, replayed.without_noise()):
        targets = circuit.columns().targets
        with pytest.raises(ValueError, match="read-only"):
            targets[0] = 7
    assert body.columns().targets[0] == 2


@pytest.mark.parametrize(
    "name, targets, kwargs, message",
    [
        ("H", [0], {"basis": "X"}, "H takes no detector coords or basis"),
        ("X_ERROR", [0], {"coords": (1.0,)}, "X_ERROR takes no detector coords or basis"),
        ("M", [0], {"rec": [0]}, "M takes no records or observable index"),
        ("TICK", [], {"obs_index": 0}, "TICK takes no records or observable index"),
        ("TICK", [0], {}, "TICK takes no qubit targets"),
        ("DETECTOR", [0], {"rec": [0]}, "DETECTOR takes only records, coords and a basis"),
    ],
)
def test_fields_an_instruction_has_no_column_for_are_rejected(name, targets, kwargs, message):
    c = _one_measurement()
    before = list(c.instructions)
    args = [0.1] if name == "X_ERROR" else []
    with pytest.raises(ValueError, match=message):
        c.append(name, targets, args, **kwargs)
    assert c.instructions == before
    assert (c.num_qubits, c.num_measurements, c.num_detectors) == (1, 1, 0)
