"""Shared fixtures for the test suite.

Besides the noise-model fixtures, this exposes the decoder-test *fixture
factory* of ``factories.py`` (cached surface-code cases, DEM/chain
matching-graph constructors, dense random syndrome generators).  The
kernel parity matrix (``test_kernels.py``), the cross-decoder contract
suite (``test_decoder_contract.py``) and the per-decoder test modules all
build their cases through these factories instead of copy-pasted setup.
"""

from __future__ import annotations

import numpy as np
import pytest
from factories import (
    PARITY_GRID_POINTS,
    build_chain_graph,
    build_dem_graph,
    build_dense_syndromes,
    build_surface_case,
)

from repro.noise import GOOGLE, IBM, NoiseModel


@pytest.fixture(scope="session")
def surface_case():
    """Factory fixture for :func:`build_surface_case`."""
    return build_surface_case


@pytest.fixture(scope="session")
def parity_grid():
    """The kernel parity matrix's (d, p) grid: point -> (graph, det)."""
    return {
        (d, p): build_surface_case(d, p, shots, seed)[:2]
        for (d, p), (shots, seed) in PARITY_GRID_POINTS.items()
    }


@pytest.fixture(scope="session")
def dem_graph():
    """Factory fixture for :func:`build_dem_graph`."""
    return build_dem_graph


@pytest.fixture(scope="session")
def chain_graph():
    """Factory fixture for :func:`build_chain_graph`."""
    return build_chain_graph


@pytest.fixture
def dense_syndromes():
    """Factory fixture for :func:`build_dense_syndromes`."""
    return build_dense_syndromes


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ibm_noise():
    return NoiseModel(hardware=IBM, p=1e-3)


@pytest.fixture
def google_noise():
    return NoiseModel(hardware=GOOGLE, p=1e-3)


@pytest.fixture
def quiet_noise():
    """Gate noise only; idling disabled (fast, literature-comparable)."""
    return NoiseModel(hardware=GOOGLE, p=1e-3, idle_scale=0.0)
