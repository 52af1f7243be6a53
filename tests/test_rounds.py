"""Stabilizer-round emitter tests: layer structure, idle accounting."""

import pytest

from repro.codes import PatchLayout, QubitRegistry
from repro.codes.rounds import StabilizerRoundEmitter
from repro.noise import GOOGLE, NoiseModel
from repro.stab import Circuit
from repro.timing import RoundIdle


@pytest.fixture
def setup():
    layout = PatchLayout(0, 2, 3, vertical_basis="X")
    registry = QubitRegistry()
    circuit = Circuit()
    noise = NoiseModel(hardware=GOOGLE, p=1e-3)
    emitter = StabilizerRoundEmitter(circuit, registry, noise)
    patch_qubits = sorted(
        {registry.data(c) for c in layout.data_coords()}
        | {registry.ancilla(p.pos) for p in layout.plaquettes}
    )
    return layout, circuit, emitter, patch_qubits


def test_round_has_four_cnot_layers(setup):
    layout, circuit, emitter, patch_qubits = setup
    emitter.emit_round(layout.plaquettes, patch_qubits)
    assert circuit.count("H") == 2 * 4  # 4 X-plaquettes, two H layers
    cx_instructions = [i for i in circuit.instructions if i.name == "CX"]
    assert len(cx_instructions) == 4
    total_pairs = sum(len(i.targets) // 2 for i in cx_instructions)
    # every plaquette contributes one CNOT per occupied slot
    assert total_pairs == sum(p.weight for p in layout.plaquettes)


def test_round_measures_every_plaquette_once(setup):
    layout, circuit, emitter, patch_qubits = setup
    recs = emitter.emit_round(layout.plaquettes, patch_qubits)
    assert set(recs) == {p.pos for p in layout.plaquettes}
    assert len(set(recs.values())) == len(layout.plaquettes)
    assert circuit.num_measurements == len(layout.plaquettes)


def test_each_cnot_layer_touches_each_qubit_once(setup):
    layout, circuit, emitter, patch_qubits = setup
    emitter.emit_round(layout.plaquettes, patch_qubits)
    for inst in circuit.instructions:
        if inst.name == "CX":
            assert len(set(inst.targets)) == len(inst.targets)


def test_idle_windows_match_layer_durations(setup):
    layout, circuit, emitter, patch_qubits = setup
    emitter.emit_round(layout.plaquettes, patch_qubits)
    hw = GOOGLE
    idles = [i for i in circuit.instructions if i.name == "PAULI_CHANNEL_1"]
    # layers: H, 4x CX, H, readout -> 7 idle windows on inactive qubits
    assert len(idles) == 7
    from repro.noise import idle_pauli_probs

    expected_h = idle_pauli_probs(hw.time_1q_ns, hw.t1_ns, hw.t2_ns)
    scale = emitter.noise.structural_idle_scale
    assert idles[0].args[0] == pytest.approx(expected_h[0] * scale)
    expected_read = idle_pauli_probs(
        hw.time_readout_ns + hw.time_reset_ns, hw.t1_ns, hw.t2_ns
    )
    assert idles[-1].args[2] == pytest.approx(expected_read[2] * scale, rel=1e-9)


def test_data_qubits_idle_through_readout(setup):
    layout, circuit, emitter, patch_qubits = setup
    reg = emitter.registry
    emitter.emit_round(layout.plaquettes, patch_qubits)
    last_idle = [i for i in circuit.instructions if i.name == "PAULI_CHANNEL_1"][-1]
    data_qubits = {reg.data(c) for c in layout.data_coords()}
    assert set(last_idle.targets) == data_qubits


def test_pre_idle_covers_whole_patch(setup):
    layout, circuit, emitter, patch_qubits = setup
    emitter.emit_round(layout.plaquettes, patch_qubits, RoundIdle(pre_ns=333.0))
    first = circuit.instructions[0]
    assert first.name == "PAULI_CHANNEL_1"
    assert list(first.targets) == patch_qubits


def test_intra_idle_adds_six_gaps(setup):
    layout, circuit, emitter, patch_qubits = setup
    emitter.emit_round(layout.plaquettes, patch_qubits, RoundIdle(intra_ns=600.0))
    idles = [i for i in circuit.instructions if i.name == "PAULI_CHANNEL_1"]
    whole_patch = [i for i in idles if list(i.targets) == patch_qubits]
    assert len(whole_patch) == 6


def test_measurement_record_order_is_position_sorted(setup):
    layout, circuit, emitter, patch_qubits = setup
    recs = emitter.emit_round(layout.plaquettes, patch_qubits)
    ordered = sorted(recs, key=lambda pos: pos)
    values = [recs[pos] for pos in ordered]
    assert values == sorted(values)


def _round_stream(circuit, start):
    return [(i.name, i.targets, i.args) for i in circuit.instructions[start:]]


def test_replayed_rounds_match_rounds_built_from_scratch(setup):
    layout, circuit, emitter, patch_qubits = setup
    # bodies recur apart, differ only in their pre-round idle, or only in
    # whether the intra-round idle is structural
    idles = [
        RoundIdle(),
        RoundIdle(pre_ns=80.0, intra_ns=120.0),
        RoundIdle(intra_ns=60.0),
        RoundIdle(intra_ns=120.0),
        RoundIdle(pre_ns=30.0, intra_ns=60.0, intra_is_structural=True),
        RoundIdle(pre_ns=10.0),
    ]
    n = len(layout.plaquettes)
    for r, idle in enumerate(idles):
        recs = emitter.emit_round(layout.plaquettes, patch_qubits, idle)
        assert sorted(recs.values()) == list(range(r * n, (r + 1) * n))
    assert len(emitter._body_cache) == 4

    fresh = Circuit()
    for idle in idles:
        # a new emitter per round has no cached layers to replay
        StabilizerRoundEmitter(fresh, emitter.registry, emitter.noise).emit_round(
            layout.plaquettes, patch_qubits, idle
        )
    assert _round_stream(circuit, 0) == _round_stream(fresh, 0)
    assert circuit.num_measurements == fresh.num_measurements == len(idles) * n


def test_layers_are_keyed_on_plaquette_values_not_positions():
    # the merged patch has a weight-4 plaquette where the left patch has its
    # weight-2 boundary check: same position, different slots
    small = PatchLayout(0, 2, 3, vertical_basis="X")
    merged = PatchLayout(0, 6, 3, vertical_basis="X")
    by_pos = {p.pos: p for p in merged.plaquettes}
    p_small = next(
        p for p in small.plaquettes if p.pos in by_pos and by_pos[p.pos].slots != p.slots
    )
    p_big = by_pos[p_small.pos]
    registry = QubitRegistry()
    emitter = StabilizerRoundEmitter(Circuit(), registry, NoiseModel(hardware=GOOGLE, p=0.0))
    patch_qubits = sorted(
        {registry.data(c) for c in merged.data_coords()} | {registry.ancilla(p_big.pos)}
    )
    emitter.emit_round([p_small], patch_qubits)
    start = len(emitter.circuit)
    emitter.emit_round([p_big], patch_qubits)
    cx = [i for i in emitter.circuit.instructions[start:] if i.name == "CX"]
    assert sum(len(i.targets) // 2 for i in cx) == p_big.weight > p_small.weight


def test_a_list_changed_in_place_gets_its_own_layers():
    # rounds find cached layers by the identity of their lists first, so a
    # list whose plaquettes change in place must not replay the old layers
    small = PatchLayout(0, 2, 3, vertical_basis="X")
    merged = PatchLayout(0, 6, 3, vertical_basis="X")
    by_pos = {p.pos: p for p in merged.plaquettes}
    p_small = next(
        p for p in small.plaquettes if p.pos in by_pos and by_pos[p.pos].slots != p.slots
    )
    p_big = by_pos[p_small.pos]
    registry = QubitRegistry()
    emitter = StabilizerRoundEmitter(Circuit(), registry, NoiseModel(hardware=GOOGLE, p=0.0))
    patch_qubits = sorted(
        {registry.data(c) for c in merged.data_coords()} | {registry.ancilla(p_big.pos)}
    )
    plaquettes = [p_small]
    emitter.emit_round(plaquettes, patch_qubits)
    plaquettes[0] = p_big
    start = len(emitter.circuit)
    emitter.emit_round(plaquettes, patch_qubits)
    cx = [i for i in emitter.circuit.instructions[start:] if i.name == "CX"]
    assert sum(len(i.targets) // 2 for i in cx) == p_big.weight


def test_layer_cache_belongs_to_one_emitter(setup):
    layout, circuit, emitter, patch_qubits = setup
    emitter.emit_round(layout.plaquettes, patch_qubits)
    # a second registry numbers the same qubits differently, so the same
    # plaquettes and patch-qubit list must give other targets
    other = QubitRegistry()
    for p in reversed(layout.plaquettes):
        other.ancilla(p.pos)
    qubits = sorted(
        {other.data(c) for c in layout.data_coords()}
        | {other.ancilla(p.pos) for p in layout.plaquettes}
    )
    assert qubits == patch_qubits
    c2 = Circuit()
    StabilizerRoundEmitter(c2, other, emitter.noise).emit_round(layout.plaquettes, qubits)
    (mr,) = [i for i in c2.instructions if i.name == "MR"]
    assert mr.targets == tuple(
        other.ancilla(p.pos) for p in sorted(layout.plaquettes, key=lambda p: p.pos)
    )
    assert _round_stream(c2, 0) != _round_stream(circuit, 0)


def test_repeated_rounds_replay_one_body(monkeypatch):
    # a round's gates and noise are appended once per distinct body, so
    # doubling the pre-merge rounds adds at most each new round's pre-idle
    from repro.core.policies import make_policy
    from repro.experiments.ler import SurgeryLerConfig, _synthesize

    calls = []
    append = Circuit.append

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return append(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "append", counting)
    counts = {}
    for rounds in (3, 6):
        calls.clear()
        config = SurgeryLerConfig(
            distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=500.0, base_rounds=rounds
        )
        _, art = _synthesize(config, make_policy("passive"))
        counts[rounds] = (len(calls), art.circuit.num_measurements)
    (few, m_few), (many, m_many) = counts[3], counts[6]
    assert m_many > m_few
    # three more rounds on each of two patches, at most one pre-idle each
    assert 0 <= many - few <= 2 * 3

