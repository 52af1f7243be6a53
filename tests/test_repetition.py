"""Repetition-code experiment tests (the Fig. 1c fixture)."""

import numpy as np
import pytest

from repro.codes.repetition import repetition_experiment
from repro.decoders import LookupTableDecoder, UnionFindDecoder, build_matching_graph
from repro.stab import DemSampler, circuit_to_dem, simulate_circuit
from repro.noise import NoiseModel
from repro.noise.hardware import SHERBROOKE


@pytest.fixture
def sherbrooke_noise():
    return NoiseModel(hardware=SHERBROOKE, p=1e-2)


def test_structure(sherbrooke_noise):
    art = repetition_experiment(3, 2, sherbrooke_noise)
    assert art.circuit.num_qubits == 5
    assert art.circuit.num_detectors == 2 * 3  # 2 checks x (2 rounds + final)
    assert art.circuit.num_observables == 1


def test_noiseless_determinism(sherbrooke_noise):
    art = repetition_experiment(3, 2, sherbrooke_noise, idle_before_last_round_ns=500.0)
    clean = art.circuit.without_noise()
    for seed in range(4):
        _, det, obs = simulate_circuit(clean, seed)
        assert det.sum() == 0 and obs.sum() == 0


def test_invalid_args(sherbrooke_noise):
    with pytest.raises(ValueError):
        repetition_experiment(1, 2, sherbrooke_noise)
    with pytest.raises(ValueError):
        repetition_experiment(3, 0, sherbrooke_noise)


def test_idle_monotonically_increases_ler(sherbrooke_noise):
    lers = []
    for idle in (0.0, 20_000.0, 60_000.0):
        art = repetition_experiment(3, 2, sherbrooke_noise, idle_before_last_round_ns=idle)
        dem = circuit_to_dem(art.circuit)
        graph = build_matching_graph(dem, basis="Z")
        det, obs = DemSampler(dem).sample(20000, rng=1)
        pred = UnionFindDecoder(graph).decode_batch(det)
        lers.append(float((pred[:, :1] ^ obs).mean()))
    assert lers[0] < lers[1] < lers[2]


def test_lut_decoder_covers_repetition_code(sherbrooke_noise):
    """The paper used a LUT decoder for Fig. 1c; weight-3 enumeration covers
    the 3-qubit, 2-round code's whole syndrome space."""
    art = repetition_experiment(3, 2, sherbrooke_noise, idle_before_last_round_ns=300.0)
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    lut = LookupTableDecoder(graph, max_errors=4)
    det, obs = DemSampler(dem).sample(3000, rng=2)
    pred = lut.decode_batch(det)  # raises KeyError on any uncovered syndrome
    ler = float((pred[:, :1] ^ obs).mean())
    assert 0.0 <= ler < 0.5


def test_wider_repetition_codes(sherbrooke_noise):
    art = repetition_experiment(5, 3, sherbrooke_noise)
    assert art.circuit.num_qubits == 9
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    assert graph.decomposition_fallbacks == 0
