"""Pauli-twirl idling error channel (Sec. 6 of the paper).

An idle window of duration ``tau`` on a qubit with relaxation/dephasing times
``T1``/``T2`` is twirled into a single-qubit Pauli channel:

    px = py = (1 - exp(-tau/T1)) / 4
    pz      = (1 - exp(-tau/T2)) / 2 - px

This is the paper's conservative model: no crosstalk, spectators, or leakage.
"""

from __future__ import annotations

import math

__all__ = ["idle_pauli_probs"]


def idle_pauli_probs(tau_ns: float, t1_ns: float, t2_ns: float) -> tuple[float, float, float]:
    """(px, py, pz) of the twirled idling channel for an idle of ``tau_ns``."""
    if tau_ns < 0:
        raise ValueError("idle duration must be non-negative")
    if tau_ns == 0:
        return (0.0, 0.0, 0.0)
    if t2_ns > 2 * t1_ns:
        raise ValueError("unphysical coherence times: T2 > 2*T1")
    px = (1.0 - math.exp(-tau_ns / t1_ns)) / 4.0
    pz = (1.0 - math.exp(-tau_ns / t2_ns)) / 2.0 - px
    pz = max(pz, 0.0)
    return (px, px, pz)

