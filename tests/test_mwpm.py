"""Exact MWPM decoder tests.

Graphs are built through the shared ``dem_graph`` factory in ``conftest.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.decoders import MWPMDecoder
from repro.decoders.kernels import BatchedMWPM


def test_empty_syndrome(dem_graph):
    g = dem_graph([(0.1, (0, 1), ())], 2)
    assert MWPMDecoder(g).decode(np.zeros(2, dtype=bool)) == 0


def test_pairs_matched_along_shortest_path(dem_graph):
    # chain of 4 detectors; defects at the ends must match through the middle
    g = dem_graph(
        [
            (0.1, (0, 1), (0,)),
            (0.1, (1, 2), ()),
            (0.1, (2, 3), (0,)),
            (0.001, (0,), ()),
            (0.001, (3,), ()),
        ],
        4,
    )
    dec = MWPMDecoder(g)
    syndrome = np.array([True, False, False, True])
    # path 0-1-2-3 flips the observable twice -> prediction 0
    assert dec.decode(syndrome) == 0


def test_boundary_matching_when_cheaper(dem_graph):
    g = dem_graph(
        [
            (0.001, (0, 1), ()),  # expensive internal edge
            (0.4, (0,), (0,)),  # cheap boundary edges
            (0.4, (1,), ()),
        ],
        2,
    )
    dec = MWPMDecoder(g)
    # both defects go to the boundary; only one crosses the observable
    assert dec.decode(np.array([True, True])) == 1


def test_odd_defect_count_uses_boundary(dem_graph):
    g = dem_graph([(0.1, (0, 1), (0,)), (0.2, (0,), ()), (0.2, (1,), (0,))], 2)
    dec = MWPMDecoder(g)
    assert dec.decode(np.array([True, False])) in (0, 1)  # defined behaviour
    # single defect at 1: boundary edge flips obs
    assert dec.decode(np.array([False, True])) == 1


def test_path_observable_parity_accumulates(dem_graph):
    g = dem_graph(
        [
            (0.1, (0, 1), (0,)),
            (0.1, (1, 2), (0,)),
        ],
        3,
    )
    dec = MWPMDecoder(g)
    # defects at 0 and 2: path crosses two obs-flipping edges -> cancel
    assert dec.decode(np.array([True, False, True])) == 0


def test_decode_batch_shape(dem_graph):
    g = dem_graph([(0.1, (0, 1), (0,)), (0.1, (0,), ()), (0.1, (1,), ())], 2)
    dec = MWPMDecoder(g)
    rng = np.random.default_rng(1)
    dets = rng.random((20, 2)) < 0.5
    out = dec.decode_batch(dets)
    assert out.shape == (20, 1)


def test_batched_kernel_matches_scalar_exhaustively(dem_graph):
    # every syndrome of a 5-detector graph with chords and parallel edges
    g = dem_graph(
        [
            (0.1, (0, 1), (0,)),
            (0.2, (1, 2), ()),
            (0.05, (2, 3), (0,)),
            (0.15, (3, 4), ()),
            (0.02, (0, 2), (1,)),
            (0.12, (1, 3), ()),
            (0.3, (0,), ()),
            (0.25, (4,), (1,)),
        ],
        5,
        nobs=2,
    )
    dec = MWPMDecoder(g)
    rows = np.array(
        [[bool(v >> i & 1) for i in range(5)] for v in range(32)], dtype=bool
    )
    kernel = BatchedMWPM(dec)
    out = kernel.decode_rows(rows)
    for i in range(rows.shape[0]):
        assert int(out[i]) == dec.decode(rows[i]), rows[i]


def test_import_repro_does_not_load_networkx():
    """networkx loads on the first MWPM matching, not at package import."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        check=True,
    )
    assert proc.stdout.strip() == "False"

