"""Logical-teleportation experiment tests (Fig. 3a machinery)."""

import pytest

from repro.codes.teleport import TeleportSpec, teleport_experiment
from repro.decoders import UnionFindDecoder, build_matching_graph, graphlike_distance
from repro.stab import DemSampler, circuit_to_dem, simulate_circuit
from repro.timing import PatchTimeline


def test_noiseless_determinism(ibm_noise):
    art = teleport_experiment(TeleportSpec(distance=3, noise=ibm_noise))
    clean = art.circuit.without_noise()
    for seed in range(6):
        _, det, obs = simulate_circuit(clean, seed)
        assert det.sum() == 0, f"seed {seed}: detectors fired"
        assert obs.sum() == 0, f"seed {seed}: teleported logical flipped"


def test_teleported_observable_protected(ibm_noise):
    art = teleport_experiment(TeleportSpec(distance=3, noise=ibm_noise))
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis=art.detector_basis)
    assert graph.decomposition_fallbacks == 0
    assert graphlike_distance(graph, 0) == 3


def test_teleport_ler_reasonable(google_noise):
    art = teleport_experiment(TeleportSpec(distance=3, noise=google_noise))
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis=art.detector_basis)
    det, obs = DemSampler(dem).sample(8000, rng=3)
    pred = UnionFindDecoder(graph).decode_batch(det)
    ler = float((pred[:, :1] ^ obs).mean())
    assert 0.0 < ler < 0.2


def test_slack_on_source_increases_ler(google_noise):
    lers = []
    for final_idle in (0.0, 1500.0):
        tl = PatchTimeline.uniform(4)
        tl.final_idle_ns = final_idle
        art = teleport_experiment(
            TeleportSpec(distance=3, noise=google_noise, timeline_p=tl)
        )
        dem = circuit_to_dem(art.circuit)
        graph = build_matching_graph(dem, basis=art.detector_basis)
        det, obs = DemSampler(dem).sample(12000, rng=4)
        pred = UnionFindDecoder(graph).decode_batch(det)
        lers.append(float((pred[:, :1] ^ obs).mean()))
    assert lers[1] > lers[0] * 0.95  # slack can only hurt (up to noise)


def test_invalid_distance(ibm_noise):
    with pytest.raises(ValueError):
        teleport_experiment(TeleportSpec(distance=1, noise=ibm_noise))


def test_round_counts_respected(ibm_noise):
    art = teleport_experiment(
        TeleportSpec(distance=3, noise=ibm_noise, rounds_pre=2, rounds_merged=3, rounds_post=2)
    )
    # source Z-checks measured: 2 pre + 3 merged; dst: 2 pre + 3 merged + 2 post
    # detector count sanity: per patch 4 Z-checks
    assert art.circuit.num_detectors > 0
    labels = {info.coords[2] for info in art.circuit.detectors}
    assert max(labels) == 2 + 3 + 2  # final readout label


def test_target_final_idle_is_emitted(ibm_noise):
    def whole_target_idles(art):
        reg, dst = art.registry, art.layout_dst
        target = {reg.data(c) for c in dst.data_coords()} | {
            reg.ancilla(p.pos) for p in dst.plaquettes
        }
        return [
            inst
            for inst in art.circuit.instructions
            if inst.name == "PAULI_CHANNEL_1" and set(inst.targets) == target
        ]

    base = teleport_experiment(TeleportSpec(distance=3, noise=ibm_noise))
    slack = teleport_experiment(
        TeleportSpec(
            distance=3,
            noise=ibm_noise,
            timeline_pp=PatchTimeline.uniform(4, final_idle_ns=300.0),
        )
    )
    # the target's slack is one idle layer on exactly its qubits, before the merge
    assert len(slack.circuit) == len(base.circuit) + 1
    assert len(whole_target_idles(slack)) == len(whole_target_idles(base)) + 1
