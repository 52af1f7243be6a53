"""Case-study tests: cultivation slack (Fig. 4a) and qLDPC slack (Fig. 4b)."""

import numpy as np
import pytest

from repro.casestudies import (
    CultivationModel,
    cultivation_slack_distribution,
    qldpc_surface_slack,
    slack_sawtooth,
)
from repro.codes.cycle_time import COLOR_CODE, QLDPC_BB, SURFACE_CODE
from repro.noise import GOOGLE, IBM


def test_cultivation_success_probability_decreases_with_p():
    model = CultivationModel()
    assert model.success_probability(5e-4) > model.success_probability(1e-3)
    with pytest.raises(ValueError):
        model.success_probability(1.5)


def test_cultivation_slack_bounded_by_cycle():
    dist = cultivation_slack_distribution(IBM, 1e-3, shots=20_000, rng=0)
    assert dist.samples_ns.shape == (20_000,)
    assert (dist.samples_ns >= 0).all()
    assert dist.worst_ns < IBM.cycle_time_ns
    assert 0 < dist.median_ns < IBM.cycle_time_ns


def test_cultivation_slack_scale_matches_paper_band():
    """The paper reads ~500 ns average / ~1000 ns worst case off Fig. 4a."""
    dist = cultivation_slack_distribution(IBM, 1e-3, shots=50_000, rng=1)
    assert 200 < dist.mean_ns < 1500
    assert dist.percentile(95) > 500


def test_cultivation_deterministic_with_seed():
    a = cultivation_slack_distribution(GOOGLE, 1e-3, shots=1000, rng=7)
    b = cultivation_slack_distribution(GOOGLE, 1e-3, shots=1000, rng=7)
    assert np.array_equal(a.samples_ns, b.samples_ns)


def test_sawtooth_properties():
    out = slack_sawtooth(10, 1000.0, 1210.0)
    assert out.shape == (11,)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(210.0)
    assert (out < 1000.0).all()
    with pytest.raises(ValueError):
        slack_sawtooth(5, 1200.0, 1000.0)
    with pytest.raises(ValueError):
        slack_sawtooth(-1, 1000.0, 1200.0)


def test_qldpc_slack_drift_per_round():
    for hw in (IBM, GOOGLE):
        slack = qldpc_surface_slack(50, hw)
        t_s = SURFACE_CODE.cycle_time_ns(hw)
        t_q = QLDPC_BB.cycle_time_ns(hw)
        drift = t_q - t_s
        assert drift == pytest.approx(3 * hw.time_2q_ns)
        assert slack[1] == pytest.approx(drift % t_s)
        # sawtooth wraps at the surface cycle time
        assert slack.max() < t_s


def test_code_cycle_models_ordering():
    for hw in (IBM, GOOGLE):
        assert (
            SURFACE_CODE.cycle_time_ns(hw)
            < QLDPC_BB.cycle_time_ns(hw)
            < COLOR_CODE.cycle_time_ns(hw)
        )
