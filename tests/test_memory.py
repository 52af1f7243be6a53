"""Memory-experiment circuit tests."""

import numpy as np
import pytest
from tableau_oracle import simulate_circuit

from repro.codes import memory_experiment
from repro.decoders import UnionFindDecoder, build_matching_graph
from repro.stab import DemSampler, circuit_to_dem
from repro.timing import PatchTimeline


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_noiseless_determinism(basis, ibm_noise):
    art = memory_experiment(3, 4, ibm_noise, basis=basis)
    clean = art.circuit.without_noise()
    for seed in range(4):
        _, det, obs = simulate_circuit(clean, seed)
        assert det.sum() == 0
        assert obs.sum() == 0


def test_detector_count(ibm_noise):
    d, rounds = 3, 4
    art = memory_experiment(d, rounds, ibm_noise)
    checks = (d * d - 1) // 2
    assert art.circuit.num_detectors == checks * (rounds + 1)


def test_detector_coords_cover_all_rounds(ibm_noise):
    art = memory_experiment(3, 3, ibm_noise)
    rounds = {info.coords[2] for info in art.circuit.detectors}
    assert rounds == {0, 1, 2, 3}


def test_observable_is_vertical_column(ibm_noise):
    d = 3
    art = memory_experiment(d, 2, ibm_noise, basis="Z")
    obs_inst = [i for i in art.circuit.instructions if i.name == "OBSERVABLE_INCLUDE"]
    assert len(obs_inst) == 1
    assert len(obs_inst[0].rec) == d


def test_ler_decreases_with_distance(quiet_noise):
    lers = []
    for d in (3, 5):
        art = memory_experiment(d, d, quiet_noise)
        dem = circuit_to_dem(art.circuit)
        graph = build_matching_graph(dem, basis="Z")
        det, obs = DemSampler(dem).sample(50000, rng=1)
        pred = UnionFindDecoder(graph).decode_batch(det)
        lers.append(float((pred[:, :1] ^ obs).mean()))
    assert lers[1] < lers[0]


def test_ler_increases_with_physical_error(quiet_noise):
    from repro.noise import NoiseModel

    lers = []
    for p in (1e-3, 5e-3):
        noise = NoiseModel(hardware=quiet_noise.hardware, p=p, idle_scale=0.0)
        art = memory_experiment(3, 3, noise)
        dem = circuit_to_dem(art.circuit)
        graph = build_matching_graph(dem, basis="Z")
        det, obs = DemSampler(dem).sample(30000, rng=2)
        pred = UnionFindDecoder(graph).decode_batch(det)
        lers.append(float((pred[:, :1] ^ obs).mean()))
    assert lers[1] > lers[0]


def test_timeline_adds_idle_channels(google_noise):
    base = memory_experiment(3, 4, google_noise)
    idled = memory_experiment(
        3, 4, google_noise, timeline=PatchTimeline.uniform(4, pre_ns=500.0)
    )
    count = lambda c: sum(1 for i in c.instructions if i.name == "PAULI_CHANNEL_1")
    assert count(idled.circuit) > count(base.circuit)


def test_timeline_length_must_match(google_noise):
    with pytest.raises(ValueError):
        memory_experiment(3, 4, google_noise, timeline=PatchTimeline.uniform(3))


def test_invalid_args(ibm_noise):
    with pytest.raises(ValueError):
        memory_experiment(3, 0, ibm_noise)
    with pytest.raises(ValueError):
        memory_experiment(3, 2, ibm_noise, basis="Y")
