"""Cross-cutting hypothesis property tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import PatchLayout, other_basis
from repro.decoders import UnionFindDecoder, build_matching_graph
from repro.stab.dem import DemError, DetectorErrorModel
from repro.timing import PatchTimeline, RoundIdle


# --- layout properties --------------------------------------------------------


@given(
    d=st.integers(2, 8),
    v=st.sampled_from(["X", "Z"]),
    col0=st.integers(0, 5),
)
def test_patch_layout_invariants(d, v, col0):
    lay = PatchLayout(col0, col0 + d - 1, d, vertical_basis=v)
    counts = lay.stabilizer_counts()
    # stabilizer count pins the logical count to exactly one
    assert counts["X"] + counts["Z"] == d * d - 1
    # every plaquette stays within the patch and keeps 2 or 4 data qubits
    for p in lay.plaquettes:
        assert p.weight in (2, 4)
        for (i, j) in p.data:
            assert col0 <= i <= col0 + d - 1
            assert 0 <= j < d
    # CNOT slots never conflict within a layer
    for slot in range(4):
        used = [p.slots[slot] for p in lay.plaquettes if p.slots[slot] is not None]
        assert len(used) == len(set(used))


@given(d=st.integers(2, 6), v=st.sampled_from(["X", "Z"]))
def test_vertical_and_horizontal_logicals_intersect_once(d, v):
    lay = PatchLayout(0, d - 1, d, vertical_basis=v)
    vert = set(lay.vertical_logical())
    horiz = set(lay.horizontal_logical())
    assert len(vert & horiz) == 1


# --- matching-graph / union-find properties ---------------------------------------


@st.composite
def random_chain_dem(draw):
    n = draw(st.integers(2, 8))
    errors = [DemError(0.1, (0,), (0,))]
    for i in range(n - 1):
        errors.append(DemError(draw(st.floats(0.01, 0.3)), (i, i + 1), ()))
    errors.append(DemError(0.1, (n - 1,), ()))
    return DetectorErrorModel.from_errors(
        errors=errors,
        num_detectors=n,
        num_observables=1,
        detector_coords=[()] * n,
        detector_basis=["Z"] * n,
    ), n


@given(random_chain_dem(), st.integers(0, 2**16 - 1))
@settings(max_examples=40, deadline=None)
def test_unionfind_always_terminates_and_is_deterministic(dem_n, seed):
    dem, n = dem_n
    graph = build_matching_graph(dem)
    decoder = UnionFindDecoder(graph)
    rng = np.random.default_rng(seed)
    syndrome = rng.random(n) < 0.4
    first = decoder.decode(syndrome)
    second = decoder.decode(syndrome)
    assert first == second
    assert first in (0, 1)


@given(random_chain_dem())
@settings(max_examples=20, deadline=None)
def test_empty_syndrome_always_trivial(dem_n):
    dem, n = dem_n
    decoder = UnionFindDecoder(build_matching_graph(dem))
    assert decoder.decode(np.zeros(n, dtype=bool)) == 0


# --- timeline properties ---------------------------------------------------------


@given(
    rounds=st.integers(1, 20),
    pre=st.floats(0, 1000),
    intra=st.floats(0, 1000),
    final=st.floats(0, 1000),
)
def test_timeline_idle_accounting(rounds, pre, intra, final):
    tl = PatchTimeline.uniform(rounds, pre_ns=pre, intra_ns=intra, final_idle_ns=final)
    expected = rounds * (pre + intra) + final
    assert tl.total_idle_ns == pytest.approx(expected)


@given(pre=st.floats(0, 500), intra=st.floats(0, 500))
def test_round_idle_total_is_sum(pre, intra):
    assert RoundIdle(pre_ns=pre, intra_ns=intra).total_ns == pytest.approx(pre + intra)


# --- basis helpers ------------------------------------------------------------------


@given(b=st.sampled_from(["X", "Z"]))
def test_other_basis_involution(b):
    assert other_basis(other_basis(b)) == b
    assert other_basis(b) != b
