"""Hardware configs, idle twirl, DD model, and noise-model emission tests."""

import math

import pytest

from repro.noise import (
    BRISBANE_DD,
    DDModel,
    GOOGLE,
    IBM,
    PRESETS,
    QUERA,
    HardwareConfig,
    NoiseModel,
    idle_pauli_probs,
)
from repro.stab import Circuit


def test_cycle_times_match_table3():
    assert IBM.cycle_time_ns == pytest.approx(1900, abs=30)
    assert GOOGLE.cycle_time_ns == pytest.approx(1100, abs=30)
    assert QUERA.cycle_time_ns == pytest.approx(2.0e6, rel=0.05)


def test_presets_registry():
    assert set(PRESETS) == {"ibm", "google", "quera"}
    assert PRESETS["ibm"] is IBM


def test_with_cycle_time_stretches_readout():
    hw = GOOGLE.with_cycle_time(1000.0)
    assert hw.cycle_time_ns == pytest.approx(1000.0)
    assert hw.time_2q_ns == GOOGLE.time_2q_ns
    with pytest.raises(ValueError):
        GOOGLE.with_cycle_time(100.0)


def test_idle_probs_formula():
    px, py, pz = idle_pauli_probs(1000.0, 200_000.0, 150_000.0)
    assert px == py
    assert px == pytest.approx((1 - math.exp(-1000 / 200_000)) / 4)
    assert pz == pytest.approx((1 - math.exp(-1000 / 150_000)) / 2 - px)


def test_idle_probs_edge_cases():
    assert idle_pauli_probs(0.0, 1e5, 1e5) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        idle_pauli_probs(-1.0, 1e5, 1e5)
    with pytest.raises(ValueError):
        idle_pauli_probs(10.0, 1e5, 3e5)  # T2 > 2 T1 unphysical


def test_idle_probability_monotone_in_duration():
    last = 0.0
    for tau in (10.0, 100.0, 1000.0, 10000.0):
        p = sum(idle_pauli_probs(tau, IBM.t1_ns, IBM.t2_ns))
        assert p > last
        last = p


def test_idle_probability_smaller_for_longer_coherence():
    assert sum(idle_pauli_probs(1000.0, QUERA.t1_ns, QUERA.t2_ns)) < sum(
        idle_pauli_probs(1000.0, IBM.t1_ns, IBM.t2_ns)
    )


def test_noise_model_emissions():
    noise = NoiseModel(hardware=IBM, p=1e-3)
    c = Circuit()
    noise.emit_clifford1(c, [0])
    noise.emit_clifford2(c, [0, 1])
    noise.emit_measure_flip(c, [0], "Z")
    noise.emit_measure_flip(c, [0], "X")
    noise.emit_reset_flip(c, [0], "Z")
    noise.emit_idle(c, [0], 500.0)
    names = [i.name for i in c.instructions]
    assert names == [
        "DEPOLARIZE1",
        "DEPOLARIZE2",
        "X_ERROR",
        "Z_ERROR",
        "X_ERROR",
        "PAULI_CHANNEL_1",
    ]


def test_noise_model_zero_p_emits_nothing():
    noise = NoiseModel(hardware=IBM, p=0.0)
    c = Circuit()
    noise.emit_clifford1(c, [0])
    noise.emit_measure_flip(c, [0], "Z")
    assert len(c.instructions) == 0


def test_idle_scale_suppresses_idle_channels():
    noise = NoiseModel(hardware=IBM, p=1e-3, idle_scale=0.0)
    c = Circuit()
    noise.emit_idle(c, [0], 1000.0)
    assert len(c.instructions) == 0


def test_idle_zero_duration_emits_nothing():
    noise = NoiseModel(hardware=IBM, p=1e-3)
    c = Circuit()
    noise.emit_idle(c, [0], 0.0)
    assert len(c.instructions) == 0


# --- DD model ----------------------------------------------------------------


def test_dd_fidelity_decreases_with_idle():
    f1 = BRISBANE_DD.sequence_fidelity(800.0, 1)
    f2 = BRISBANE_DD.sequence_fidelity(5600.0, 1)
    assert 0.5 <= f2 < f1 <= 1.0


def test_dd_splitting_improves_fidelity():
    """The Fig. 6 effect: N windows beat one window of the same total."""
    total = 3200.0
    passive = BRISBANE_DD.sequence_fidelity(total, 1)
    active_20 = BRISBANE_DD.sequence_fidelity(total, 20)
    active_200 = BRISBANE_DD.sequence_fidelity(total, 200)
    assert active_20 > passive
    assert active_200 > active_20


def test_dd_pulse_errors_limit_splitting():
    lossy = DDModel(t1_ns=220_000.0, tphi_ns=2_600.0, alpha=1.45, pulse_fidelity=0.99)
    total = 800.0
    assert lossy.sequence_fidelity(total, 10_000) < lossy.sequence_fidelity(total, 50)


def test_dd_requires_window():
    with pytest.raises(ValueError):
        BRISBANE_DD.sequence_fidelity(100.0, 0)
