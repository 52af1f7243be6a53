"""k-patch lattice-surgery experiment tests (Sec. 4.3)."""

import pytest
from tableau_oracle import simulate_circuit

from repro.codes.multi_surgery import MultiSurgerySpec, multi_patch_surgery_experiment
from repro.decoders import UnionFindDecoder, build_matching_graph, graphlike_distance
from repro.stab import DemSampler, circuit_to_dem
from repro.timing import PatchTimeline


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("ls_basis", ["X", "Z"])
def test_noiseless_determinism(k, ls_basis, ibm_noise):
    art = multi_patch_surgery_experiment(
        MultiSurgerySpec(num_patches=k, distance=2, noise=ibm_noise, ls_basis=ls_basis)
    )
    clean = art.circuit.without_noise()
    for seed in range(4):
        _, det, obs = simulate_circuit(clean, seed)
        assert det.sum() == 0
        assert obs.sum() == 0


def test_three_patch_observables_and_distance(ibm_noise):
    d, k = 3, 3
    art = multi_patch_surgery_experiment(
        MultiSurgerySpec(num_patches=k, distance=d, noise=ibm_noise)
    )
    assert art.circuit.num_observables == k + 1
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis=art.detector_basis)
    assert graph.decomposition_fallbacks == 0
    for obs_index in range(k + 1):
        assert graphlike_distance(graph, obs_index) == d


def test_two_patch_case_matches_pairwise_counts(ibm_noise):
    from repro.codes import SurgerySpec, surgery_experiment

    pair = surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise))
    multi = multi_patch_surgery_experiment(
        MultiSurgerySpec(num_patches=2, distance=3, noise=ibm_noise)
    )
    assert multi.circuit.num_detectors == pair.circuit.num_detectors
    assert multi.circuit.num_measurements == pair.circuit.num_measurements


def test_per_patch_timelines(google_noise):
    d = 2
    timelines = (
        PatchTimeline.uniform(d + 1, pre_ns=300.0),  # leading patch idles most
        PatchTimeline.uniform(d + 1, pre_ns=150.0),
        PatchTimeline.uniform(d + 1),  # slowest patch idles nothing
    )
    art = multi_patch_surgery_experiment(
        MultiSurgerySpec(num_patches=3, distance=d, noise=google_noise, timelines=timelines)
    )
    clean = art.circuit.without_noise()
    _, det, obs = simulate_circuit(clean, 0)
    assert det.sum() == 0 and obs.sum() == 0
    # two patches carry pre-round idles, (d+1) each
    whole_patch_idles = [
        i for i in art.circuit.instructions
        if i.name == "PAULI_CHANNEL_1" and len(i.targets) == 7  # 4 data + 3 anc at d=2
    ]
    assert len(whole_patch_idles) == 2 * (d + 1)


def test_three_patch_ler_finite(google_noise):
    art = multi_patch_surgery_experiment(
        MultiSurgerySpec(num_patches=3, distance=2, noise=google_noise)
    )
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis=art.detector_basis)
    det, obs = DemSampler(dem).sample(6000, rng=2)
    pred = UnionFindDecoder(graph).decode_batch(det)
    ler = (pred[:, : obs.shape[1]] ^ obs).mean(axis=0)
    assert (ler > 0).all()
    assert (ler < 0.5).all()


def test_validation():
    from repro.noise import IBM, NoiseModel

    noise = NoiseModel(hardware=IBM, p=1e-3)
    with pytest.raises(ValueError):
        multi_patch_surgery_experiment(
            MultiSurgerySpec(num_patches=1, distance=3, noise=noise)
        )
    with pytest.raises(ValueError):
        multi_patch_surgery_experiment(
            MultiSurgerySpec(num_patches=2, distance=3, noise=noise, timelines=(PatchTimeline.uniform(4),))
        )


def test_detectors_by_round_partition(google_noise):
    d, rounds_merged = 2, 2
    timelines = (
        PatchTimeline.uniform(d + 1),
        PatchTimeline.uniform(d + 3),  # the slowest patch runs two extra rounds
        PatchTimeline.uniform(d + 2),
    )
    art = multi_patch_surgery_experiment(
        MultiSurgerySpec(
            num_patches=3,
            distance=d,
            noise=google_noise,
            rounds_merged=rounds_merged,
            timelines=timelines,
        )
    )
    max_rounds = d + 3
    # pre-merge rounds, merged rounds, then the readout layer
    assert sorted(art.detectors_by_round) == list(range(max_rounds + rounds_merged + 1))
    indices = [i for v in art.detectors_by_round.values() for i in v]
    assert sorted(indices) == list(range(art.circuit.num_detectors))
    for label, group in art.detectors_by_round.items():
        assert {art.circuit.detectors[i].coords[2] for i in group} == {label}
