"""Cycle-time model tests: the four desynchronization sources of Sec. 3.2."""

import pytest

from repro.codes.cycle_time import (
    COLOR_CODE,
    QLDPC_BB,
    SURFACE_CODE,
    TWIST_SURFACE,
    CodeCycleModel,
    cycle_time_ns,
)
from repro.core import SyncScenario, make_policy
from repro.noise import GOOGLE, IBM


def test_surface_cycle_matches_hardware_preset():
    for hw in (IBM, GOOGLE):
        assert cycle_time_ns(SURFACE_CODE, hw) == pytest.approx(hw.cycle_time_ns)


def test_heterogeneous_code_ordering():
    """Fig. 3a: every alternative code has a longer logical clock."""
    for hw in (IBM, GOOGLE):
        t_s = cycle_time_ns(SURFACE_CODE, hw)
        assert cycle_time_ns(TWIST_SURFACE, hw) > t_s
        assert cycle_time_ns(QLDPC_BB, hw) > t_s
        assert cycle_time_ns(COLOR_CODE, hw) > cycle_time_ns(QLDPC_BB, hw)


def test_twist_adds_exactly_one_layer():
    assert cycle_time_ns(TWIST_SURFACE, IBM) - cycle_time_ns(SURFACE_CODE, IBM) == (
        pytest.approx(IBM.time_2q_ns)
    )


def test_qldpc_drift_matches_fig4b_rates():
    # IBM: 3 extra CNOT layers x 70 ns = 210 ns/round (Fig. 4b's slope)
    assert cycle_time_ns(QLDPC_BB, IBM) - cycle_time_ns(SURFACE_CODE, IBM) == (
        pytest.approx(210.0)
    )


def test_modular_patch_synchronizes_via_hybrid():
    """A boundary-straddling patch can be synchronized with extra rounds."""
    # one of four CNOT layers on a 3x slower chip-to-chip coupler
    t_pp = IBM.cycle_time_ns + 2 * IBM.time_2q_ns
    scenario = SyncScenario(
        t_p_ns=IBM.cycle_time_ns, t_pp_ns=t_pp, tau_ns=800.0, base_rounds=6
    )
    plan = make_policy("hybrid", eps_ns=400.0, max_rounds=200).plan(scenario)
    assert plan.extra_rounds_p >= 1
    assert plan.idle_ns < 400.0


def test_custom_cycle_model():
    model = CodeCycleModel(name="flagged", cnot_layers=6, measurement_passes=2)
    t = cycle_time_ns(model, GOOGLE)
    expected = (
        2 * GOOGLE.time_1q_ns
        + 6 * GOOGLE.time_2q_ns
        + 2 * (GOOGLE.time_readout_ns + GOOGLE.time_reset_ns)
    )
    assert t == pytest.approx(expected)
