"""Detector-error-model extraction tests."""

import numpy as np
import pytest
from frame_oracle import FrameSimulator

from repro._util import combine_flip_probabilities
from repro.stab import Circuit, DemSampler, circuit_to_dem


def _rep_code_circuit(p=0.01, rounds=2, n=3):
    c = Circuit()
    data = list(range(n))
    anc = list(range(n, 2 * n - 1))
    c.append("R", data + anc)
    prev = []
    for r in range(rounds):
        c.append("X_ERROR", data, [p])
        c.append("CX", [q for i in range(n - 1) for q in (data[i], anc[i])])
        c.append("CX", [q for i in range(n - 1) for q in (data[i + 1], anc[i])])
        m = c.append("MR", anc)
        for k in range(n - 1):
            c.detector([m[k]] if r == 0 else [prev[k], m[k]], basis="Z")
        prev = m
    finals = c.append("M", data)
    for k in range(n - 1):
        c.detector([prev[k], finals[k], finals[k + 1]], basis="Z")
    c.observable_include(0, [finals[0]])
    return c


def test_repetition_code_dem_structure():
    dem = circuit_to_dem(_rep_code_circuit())
    # 3 data qubits x 2 rounds of X_ERROR -> 6 distinct mechanisms
    assert len(dem.errors) == 6
    sigs = {e.detectors for e in dem.errors}
    assert (0,) in sigs  # boundary-adjacent error, round 0
    assert (0, 1) in sigs  # middle qubit error
    obs_flips = [e for e in dem.errors if e.observables == (0,)]
    assert len(obs_flips) == 2  # qubit 0 in each round


def test_dem_probabilities_match_channel():
    dem = circuit_to_dem(_rep_code_circuit(p=0.02))
    for err in dem.errors:
        assert err.probability == pytest.approx(0.02, rel=1e-9)


def test_identical_signatures_merge():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [0.1])
    c.append("X_ERROR", [0], [0.2])
    m = c.append("M", [0])
    c.detector(m)
    dem = circuit_to_dem(c)
    assert len(dem.errors) == 1
    assert dem.errors[0].probability == pytest.approx(
        combine_flip_probabilities([0.1, 0.2])
    )


def test_invisible_errors_dropped():
    c = Circuit()
    c.append("R", [0])
    c.append("Z_ERROR", [0], [0.5])  # never affects a Z measurement
    m = c.append("M", [0])
    c.detector(m)
    dem = circuit_to_dem(c)
    assert len(dem.errors) == 0


def test_min_probability_filter():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [1e-7])
    m = c.append("M", [0])
    c.detector(m)
    assert len(circuit_to_dem(c, min_probability=1e-6).errors) == 0
    assert len(circuit_to_dem(c).errors) == 1


def test_filtered_restricts_and_remaps():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("X_ERROR", [0], [0.1])
    c.append("X_ERROR", [1], [0.1])
    m = c.append("M", [0, 1])
    c.detector([m[0]], basis="Z")
    c.detector([m[1]], basis="X")  # artificial tag for the test
    dem = circuit_to_dem(c)
    z_only = dem.filtered("Z")
    assert z_only.num_detectors == 1
    assert all(e.detectors in ((), (0,)) for e in z_only.errors)


def test_dem_sampling_matches_frame_sampling():
    circuit = _rep_code_circuit(p=0.03, rounds=2)
    det_f, obs_f = FrameSimulator(circuit).sample(60000, rng=5)
    dem = circuit_to_dem(circuit)
    det_d, obs_d = DemSampler(dem).sample(60000, rng=6)
    assert np.allclose(det_f.mean(axis=0), det_d.mean(axis=0), atol=0.005)
    assert np.allclose(obs_f.mean(axis=0), obs_d.mean(axis=0), atol=0.005)


def test_depolarize2_components_visible():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("DEPOLARIZE2", [0, 1], [0.15])
    m = c.append("M", [0, 1])
    c.detector([m[0]])
    c.detector([m[1]])
    dem = circuit_to_dem(c)
    sigs = {e.detectors for e in dem.errors}
    assert sigs == {(0,), (1,), (0, 1)}
    both = next(e for e in dem.errors if e.detectors == (0, 1))
    # 4 of 15 two-qubit Paulis flip both Z-measurements (XX, XY, YX, YY)
    assert both.probability == pytest.approx(
        combine_flip_probabilities([0.01] * 4), rel=1e-6
    )
