"""Idle-schedule tests."""

import pytest

from repro.noise import IBM
from repro.timing import PatchTimeline, RoundIdle


def test_round_idle_total():
    r = RoundIdle(pre_ns=100.0, intra_ns=50.0)
    assert r.total_ns == 150.0


def test_uniform_timeline_accounting():
    tl = PatchTimeline.uniform(4, pre_ns=250.0, final_idle_ns=100.0)
    assert tl.num_rounds == 4
    assert tl.total_idle_ns == pytest.approx(1100.0)


def test_wall_time_includes_idles():
    tl = PatchTimeline.uniform(3, pre_ns=100.0)
    assert tl.wall_time_ns(IBM) == pytest.approx(3 * IBM.cycle_time_ns + 300.0)
