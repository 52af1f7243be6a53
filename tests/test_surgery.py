"""Lattice-surgery experiment-circuit tests."""

import numpy as np
import pytest
from frame_oracle import FrameSimulator
from tableau_oracle import simulate_circuit

from repro.codes import OBS_JOINT, OBS_SINGLE, OBS_SINGLE_PP, SurgerySpec, surgery_experiment
from repro.timing import PatchTimeline, RoundIdle


def _idle_instructions(circuit):
    return sum(1 for inst in circuit.instructions if inst.name == "PAULI_CHANNEL_1")


@pytest.mark.parametrize("ls_basis", ["X", "Z"])
def test_noiseless_determinism(ls_basis, ibm_noise):
    art = surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise, ls_basis=ls_basis))
    clean = art.circuit.without_noise()
    for seed in range(4):
        _, det, obs = simulate_circuit(clean, seed)
        assert det.sum() == 0
        assert obs.sum() == 0


def test_decoded_basis_matches_ls_basis(ibm_noise):
    z = surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise, ls_basis="Z"))
    x = surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise, ls_basis="X"))
    assert z.detector_basis == "X"  # Z-basis LS measures X_P X_P'
    assert x.detector_basis == "Z"


def test_three_observables_defined(ibm_noise):
    art = surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise))
    assert art.circuit.num_observables == 3
    obs = {}
    for inst in art.circuit.instructions:
        if inst.name == "OBSERVABLE_INCLUDE":
            obs.setdefault(inst.obs_index, set()).update(inst.rec)
    # joint = symmetric difference-free union of the two singles
    assert obs[OBS_JOINT] == obs[OBS_SINGLE] | obs[OBS_SINGLE_PP]
    assert len(obs[OBS_SINGLE]) == 3
    assert len(obs[OBS_SINGLE_PP]) == 3


def test_seam_detector_optional(ibm_noise):
    off = surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise))
    on = surgery_experiment(
        SurgerySpec(distance=3, noise=ibm_noise, include_seam_detector=True)
    )
    assert off.seam_detector_index is None
    assert on.seam_detector_index is not None
    assert on.circuit.num_detectors == off.circuit.num_detectors + 1
    # the seam-product detector must itself be noiseless-deterministic
    clean = on.circuit.without_noise()
    for seed in range(3):
        _, det, _ = simulate_circuit(clean, seed)
        assert det[on.seam_detector_index] == 0


def test_detectors_by_round_labels(ibm_noise):
    d = 3
    art = surgery_experiment(SurgerySpec(distance=d, noise=ibm_noise))
    labels = sorted(art.detectors_by_round)
    # d+1 pre-merge rounds, d+1 merged rounds, final readout layer
    assert labels == list(range(2 * d + 3))
    total = sum(len(v) for v in art.detectors_by_round.values())
    assert total == art.circuit.num_detectors


def test_pre_merge_detector_counts(ibm_noise):
    d = 3
    art = surgery_experiment(SurgerySpec(distance=d, noise=ibm_noise))
    per_patch_checks = (d * d - 1) // 2
    for r in range(d + 1):
        assert len(art.detectors_by_round[r]) == 2 * per_patch_checks


def test_passive_slack_adds_one_idle_layer(google_noise):
    d = 3
    base = surgery_experiment(SurgerySpec(distance=d, noise=google_noise))
    tl = PatchTimeline.uniform(d + 1)
    tl.final_idle_ns = 700.0
    slacked = surgery_experiment(
        SurgerySpec(distance=d, noise=google_noise, timeline_p=tl)
    )
    assert _idle_instructions(slacked.circuit) == _idle_instructions(base.circuit) + 1


def test_active_slack_adds_idles_per_round(google_noise):
    d = 3
    base = surgery_experiment(SurgerySpec(distance=d, noise=google_noise))
    slacked = surgery_experiment(
        SurgerySpec(
            distance=d,
            noise=google_noise,
            timeline_p=PatchTimeline.uniform(d + 1, pre_ns=100.0),
        )
    )
    assert _idle_instructions(slacked.circuit) == _idle_instructions(base.circuit) + (d + 1)


def test_unequal_pre_merge_rounds_supported(google_noise):
    d = 3
    art = surgery_experiment(
        SurgerySpec(
            distance=d,
            noise=google_noise,
            timeline_p=PatchTimeline.uniform(d + 3),
            timeline_pp=PatchTimeline.uniform(d + 1, intra_ns=150.0),
        )
    )
    clean = art.circuit.without_noise()
    for seed in range(3):
        _, det, obs = simulate_circuit(clean, seed)
        assert det.sum() == 0 and obs.sum() == 0


def test_intra_round_idle_emitted(google_noise):
    d = 3
    tl = PatchTimeline(
        rounds=[RoundIdle()] * d + [RoundIdle(intra_ns=600.0)], final_idle_ns=0.0
    )
    art = surgery_experiment(SurgerySpec(distance=d, noise=google_noise, timeline_p=tl))
    base = surgery_experiment(SurgerySpec(distance=d, noise=google_noise))
    # six gap idles on the whole patch in the last pre-merge round
    assert _idle_instructions(art.circuit) == _idle_instructions(base.circuit) + 6


def test_idle_increases_detector_activity(google_noise):
    d = 3
    base = surgery_experiment(SurgerySpec(distance=d, noise=google_noise))
    tl = PatchTimeline.uniform(d + 1)
    tl.final_idle_ns = 1000.0
    slacked = surgery_experiment(SurgerySpec(distance=d, noise=google_noise, timeline_p=tl))
    det_base, _ = FrameSimulator(base.circuit).sample(4000, rng=3)
    det_slack, _ = FrameSimulator(slacked.circuit).sample(4000, rng=3)
    assert det_slack.mean() > det_base.mean()


def test_invalid_specs_rejected(ibm_noise):
    with pytest.raises(ValueError):
        surgery_experiment(SurgerySpec(distance=3, noise=ibm_noise, ls_basis="Y"))
    with pytest.raises(ValueError):
        surgery_experiment(SurgerySpec(distance=1, noise=ibm_noise))
