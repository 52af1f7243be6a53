"""Tableau-simulator tests: known stabilizer states and measurement laws."""

import numpy as np
import pytest
from pauli_oracle import PauliString
from tableau_oracle import TableauSimulator, simulate_circuit

from repro.stab import Circuit


def _expect(sim, label):
    p = PauliString.from_label(label)
    return sim.expectation_of_pauli(p.xs, p.zs)


def test_initial_state_is_all_zero():
    sim = TableauSimulator(3, rng=0)
    for q in range(3):
        assert sim.measure(q) == 0


def test_x_flips_measurement():
    sim = TableauSimulator(1, rng=0)
    sim.x_gate(0)
    assert sim.measure(0) == 1


def test_hadamard_gives_random_outcomes():
    outcomes = set()
    for seed in range(20):
        sim = TableauSimulator(1, rng=seed)
        sim.h(0)
        outcomes.add(sim.measure(0))
    assert outcomes == {0, 1}


def test_measurement_collapse_is_sticky():
    for seed in range(10):
        sim = TableauSimulator(1, rng=seed)
        sim.h(0)
        first = sim.measure(0)
        assert sim.measure(0) == first


def test_bell_pair_correlations():
    for seed in range(15):
        sim = TableauSimulator(2, rng=seed)
        sim.h(0)
        sim.cx(0, 1)
        assert sim.measure(0) == sim.measure(1)


def test_bell_pair_expectations():
    sim = TableauSimulator(2, rng=0)
    sim.h(0)
    sim.cx(0, 1)
    assert _expect(sim, "XX") == 1
    assert _expect(sim, "ZZ") == 1
    assert _expect(sim, "YY") == -1
    assert _expect(sim, "ZI") == 0  # indeterminate


def test_s_gate_turns_x_into_y():
    sim = TableauSimulator(1, rng=0)
    sim.h(0)  # |+>, stabilized by X
    assert _expect(sim, "X") == 1
    sim.s(0)  # S|+> stabilized by Y
    assert _expect(sim, "Y") == 1
    sim.s_dag(0)
    assert _expect(sim, "X") == 1


def test_cz_equivalent_to_h_cx_h():
    a = TableauSimulator(2, rng=0)
    a.h(0)
    a.h(1)
    a.cz(0, 1)
    assert _expect(a, "XZ") == 1
    assert _expect(a, "ZX") == 1


def test_swap_moves_state():
    sim = TableauSimulator(2, rng=0)
    sim.x_gate(0)
    sim.swap(0, 1)
    assert sim.measure(0) == 0
    assert sim.measure(1) == 1


def test_reset_returns_to_zero():
    for seed in range(5):
        sim = TableauSimulator(1, rng=seed)
        sim.h(0)
        sim.reset(0)
        assert sim.measure(0) == 0


def test_measure_x_on_plus_state():
    sim = TableauSimulator(1, rng=0)
    sim.reset_x(0)
    assert sim.measure_x(0) == 0


def test_ghz_stabilizers():
    n = 4
    sim = TableauSimulator(n, rng=3)
    sim.h(0)
    for q in range(n - 1):
        sim.cx(q, q + 1)
    assert _expect(sim, "X" * n) == 1
    assert _expect(sim, "ZZII") == 1
    assert _expect(sim, "IZZI") == 1
    assert _expect(sim, "Z" + "I" * (n - 1)) == 0


def test_simulate_circuit_detector_and_observable():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("H", [0])
    c.append("CX", [0, 1])
    m = c.append("M", [0, 1])
    c.detector([m[0], m[1]])
    c.observable_include(0, [m[0], m[1]])
    for seed in range(10):
        _, det, obs = simulate_circuit(c, seed)
        assert det[0] == 0
        assert obs[0] == 0


def test_simulate_circuit_with_deterministic_noise():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [1.0])
    m = c.append("M", [0])
    c.detector(m)
    _, det, _ = simulate_circuit(c, 0)
    assert det[0] == 1


def test_noise_rate_statistics():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [0.3])
    m = c.append("M", [0])
    c.detector(m)
    hits = sum(simulate_circuit(c, seed)[1][0] for seed in range(400))
    assert 0.2 < hits / 400 < 0.4
