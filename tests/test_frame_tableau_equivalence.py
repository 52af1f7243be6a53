"""Randomized cross-validation: frame sampler vs tableau oracle.

Generates random Clifford circuits with deterministic-by-construction
detectors and random single-Pauli injections, then checks the two simulators
agree — exactly (deterministic errors) and statistically (random errors).
"""

import numpy as np
import pytest
from frame_oracle import FrameSimulator
from tableau_oracle import simulate_circuit

from repro.stab import Circuit

GATES_1Q = ["H", "S", "S_DAG", "SQRT_X", "X", "Y", "Z", "I"]
GATES_2Q = ["CX", "CZ", "SWAP"]


def _random_clifford_circuit(rng, n=4, depth=12):
    """Random Clifford circuit ending in a full Z measurement; detectors are
    pairs of repeated measurements (always deterministic)."""
    c = Circuit()
    c.append("R", list(range(n)))
    for _ in range(depth):
        if rng.random() < 0.5:
            q = int(rng.integers(0, n))
            c.append(str(rng.choice(GATES_1Q)), [q])
        else:
            a, b = rng.choice(n, size=2, replace=False)
            c.append(str(rng.choice(GATES_2Q)), [int(a), int(b)])
    # measure every qubit twice in the same basis: parity is deterministic
    first = c.append("M", list(range(n)))
    second = c.append("M", list(range(n)))
    for q in range(n):
        c.detector([first[q], second[q]])
    return c


@pytest.mark.parametrize("seed", range(8))
def test_random_clifford_detectors_deterministic(seed):
    rng = np.random.default_rng(seed)
    c = _random_clifford_circuit(rng)
    det, _ = FrameSimulator(c).sample(64, rng=seed)
    assert not det.any()
    for s in range(3):
        _, det_t, _ = simulate_circuit(c, seed * 10 + s)
        assert det_t.sum() == 0


@pytest.mark.parametrize("seed", range(6))
def test_random_circuit_with_deterministic_error(seed):
    """Inject one certain Pauli error at a random location: both simulators
    must flip exactly the same detectors."""
    rng = np.random.default_rng(100 + seed)
    c = _random_clifford_circuit(rng)
    # rebuild with an error inserted at a random instruction boundary
    noisy = Circuit()
    insert_at = int(rng.integers(1, len(c.instructions) - 1))
    err_gate = str(rng.choice(["X_ERROR", "Y_ERROR", "Z_ERROR"]))
    err_q = int(rng.integers(0, 4))
    for i, inst in enumerate(c.instructions):
        if i == insert_at:
            noisy.append(err_gate, [err_q], [1.0])
        noisy.append(
            inst.name, inst.targets, inst.args,
            rec=inst.rec, coords=inst.coords, basis=inst.basis,
            obs_index=None if inst.obs_index < 0 else inst.obs_index,
        )
    det_f, _ = FrameSimulator(noisy).sample(16, rng=0)
    assert (det_f == det_f[0]).all(), "deterministic error must give constant syndrome"
    _, det_t, _ = simulate_circuit(noisy, 7)
    assert np.array_equal(det_f[0].astype(np.uint8), det_t)


@pytest.mark.parametrize("seed", range(3))
def test_random_circuit_statistical_agreement(seed):
    rng = np.random.default_rng(200 + seed)
    c = _random_clifford_circuit(rng, n=3, depth=8)
    noisy = Circuit()
    for i, inst in enumerate(c.instructions):
        noisy.append(
            inst.name, inst.targets, inst.args,
            rec=inst.rec, coords=inst.coords, basis=inst.basis,
            obs_index=None if inst.obs_index < 0 else inst.obs_index,
        )
        if inst.name in ("CX", "CZ", "SWAP"):
            noisy.append("DEPOLARIZE2", inst.targets[:2], [0.15])
    det_f, _ = FrameSimulator(noisy).sample(30000, rng=1)
    frame_rates = det_f.mean(axis=0)
    trials = 800
    counts = np.zeros(noisy.num_detectors)
    for s in range(trials):
        _, det_t, _ = simulate_circuit(noisy, 5000 + s)
        counts += det_t
    tableau_rates = counts / trials
    assert np.allclose(frame_rates, tableau_rates, atol=0.05)
