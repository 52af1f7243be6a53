"""Pauli-frame sampler tests: channel statistics and tableau agreement."""

import numpy as np
import pytest
from frame_oracle import FrameSimulator
from tableau_oracle import simulate_circuit

from repro.stab import Circuit


def _one_qubit_probe(noise_name, args, measure="M"):
    """Circuit: reset, apply channel, measure; detector = flip indicator."""
    c = Circuit()
    c.append("RX" if measure == "MX" else "R", [0])
    c.append(noise_name, [0], args)
    m = c.append(measure, [0])
    c.detector(m)
    return c


@pytest.mark.parametrize(
    "channel,args,expected",
    [
        ("X_ERROR", [0.2], 0.2),
        ("Y_ERROR", [0.2], 0.2),
        ("Z_ERROR", [0.2], 0.0),  # Z does not flip Z-measurements
        ("DEPOLARIZE1", [0.3], 0.2),  # X or Y flips: 2/3 of 0.3
        ("PAULI_CHANNEL_1", [0.1, 0.05, 0.2], 0.15),  # px + py
    ],
)
def test_one_qubit_channel_flip_rates(channel, args, expected):
    c = _one_qubit_probe(channel, args)
    det, _ = FrameSimulator(c).sample(40000, rng=7)
    assert det.mean() == pytest.approx(expected, abs=0.01)


def test_z_error_flips_x_measurement():
    c = _one_qubit_probe("Z_ERROR", [0.25], measure="MX")
    det, _ = FrameSimulator(c).sample(40000, rng=7)
    assert det.mean() == pytest.approx(0.25, abs=0.01)


def test_depolarize2_marginal_rate():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("DEPOLARIZE2", [0, 1], [0.15])
    m = c.append("M", [0, 1])
    c.detector([m[0]])
    c.detector([m[1]])
    det, _ = FrameSimulator(c).sample(60000, rng=7)
    # each qubit sees an X or Y component in 8 of 15 cases
    assert det[:, 0].mean() == pytest.approx(0.15 * 8 / 15, abs=0.01)
    assert det[:, 1].mean() == pytest.approx(0.15 * 8 / 15, abs=0.01)


def test_reset_clears_frame():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [1.0])
    c.append("R", [0])
    m = c.append("M", [0])
    c.detector(m)
    det, _ = FrameSimulator(c).sample(100, rng=0)
    assert det.sum() == 0


def test_mr_records_before_reset():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [1.0])
    m1 = c.append("MR", [0])
    m2 = c.append("M", [0])
    c.detector(m1)
    c.detector(m2)
    det, _ = FrameSimulator(c).sample(100, rng=0)
    assert det[:, 0].all()
    assert not det[:, 1].any()


def test_cx_propagates_x_frames():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("X_ERROR", [0], [1.0])
    c.append("CX", [0, 1])
    m = c.append("M", [0, 1])
    c.detector([m[0]])
    c.detector([m[1]])
    det, _ = FrameSimulator(c).sample(10, rng=0)
    assert det.all()


def test_cx_propagates_z_frames_backwards():
    c = Circuit()
    c.append("RX", [0, 1])
    c.append("Z_ERROR", [1], [1.0])
    c.append("CX", [0, 1])
    m = c.append("MX", [0, 1])
    c.detector([m[0]])
    c.detector([m[1]])
    det, _ = FrameSimulator(c).sample(10, rng=0)
    assert det[:, 0].all()  # Z copied onto the control
    assert det[:, 1].all()


def test_hadamard_exchanges_frames():
    c = Circuit()
    c.append("R", [0])
    c.append("Z_ERROR", [0], [1.0])
    c.append("H", [0])
    m = c.append("M", [0])
    c.detector(m)
    det, _ = FrameSimulator(c).sample(10, rng=0)
    assert det.all()


def test_observables_accumulate():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("X_ERROR", [0, 1], [1.0])
    m = c.append("M", [0, 1])
    c.observable_include(0, [m[0]])
    c.observable_include(0, [m[1]])  # accumulates; two flips cancel
    _, obs = FrameSimulator(c).sample(10, rng=0)
    assert not obs.any()


def test_batching_is_seed_stable():
    c = _one_qubit_probe("X_ERROR", [0.5])
    det_a, _ = FrameSimulator(c).sample(5000, rng=42, batch_size=512)
    det_b, _ = FrameSimulator(c).sample(5000, rng=42, batch_size=512)
    assert np.array_equal(det_a, det_b)


def test_frame_matches_tableau_statistics():
    """Cross-validate the two simulators on a noisy GHZ circuit."""
    c = Circuit()
    c.append("R", [0, 1, 2])
    c.append("H", [0])
    c.append("DEPOLARIZE1", [0], [0.2])
    c.append("CX", [0, 1, 1, 2])
    c.append("DEPOLARIZE2", [0, 1], [0.1])
    m = c.append("M", [0, 1, 2])
    c.detector([m[0], m[1]])
    c.detector([m[1], m[2]])
    det, _ = FrameSimulator(c).sample(40000, rng=11)
    frame_rates = det.mean(axis=0)
    counts = np.zeros(2)
    trials = 1500
    for seed in range(trials):
        _, d, _ = simulate_circuit(c, seed)
        counts += d
    tableau_rates = counts / trials
    assert np.allclose(frame_rates, tableau_rates, atol=0.03)
