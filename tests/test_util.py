"""Utility-module tests with hypothesis property checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    combine_flip_probabilities,
    combine_flip_runs,
    resolve_rng,
    run_starts,
    xor_probability,
    xor_runs,
)


def test_resolve_rng_variants():
    g = np.random.default_rng(0)
    assert resolve_rng(g) is g
    a = resolve_rng(5)
    b = resolve_rng(5)
    assert a.random() == b.random()
    assert resolve_rng(None) is not None


def test_xor_probability_known_values():
    assert xor_probability(0.0, 0.0) == 0.0
    assert xor_probability(1.0, 0.0) == 1.0
    assert xor_probability(1.0, 1.0) == 0.0
    assert xor_probability(0.5, 0.3) == pytest.approx(0.5)


def test_combine_flip_probabilities_matches_pairwise():
    assert combine_flip_probabilities([0.1]) == pytest.approx(0.1)
    assert combine_flip_probabilities([0.1, 0.2]) == pytest.approx(
        xor_probability(0.1, 0.2)
    )
    assert combine_flip_probabilities([]) == 0.0


@given(st.lists(st.floats(0.0, 1.0), max_size=8))
def test_combined_probability_stays_in_unit_interval(ps):
    p = combine_flip_probabilities(ps)
    assert -1e-12 <= p <= 0.5 + 1e-12 or p <= 1.0


@given(st.lists(st.floats(0.0, 0.49), min_size=1, max_size=8))
def test_combined_probability_at_least_max_of_small_probs(ps):
    """For sub-50% flips, combining never reduces below any single flip...
    it stays at least as large as the XOR of the largest with the rest."""
    p = combine_flip_probabilities(ps)
    assert p >= max(ps) * (1 - 2 * sum(ps[:-1]) if len(ps) > 1 else 1) - 1e-9


@given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), max_size=12))
def test_run_folds_equal_the_scalar_loops_bit_for_bit(runs):
    lens = [len(run) for run in runs]
    probs = np.array([p for run in runs for p in run], dtype=np.float64)
    starts = run_starts(np.repeat(np.arange(len(runs)), lens))
    assert starts.tolist() == np.cumsum([0] + lens)[:-1].tolist()
    xor_loop, combine_loop = [], []
    for run in runs:
        acc = 0.0
        for p in run:
            acc = xor_probability(acc, p)
        xor_loop.append(acc)
        combine_loop.append(combine_flip_probabilities(run))
    assert xor_runs(probs, starts).tobytes() == np.array(xor_loop).tobytes()
    assert combine_flip_runs(probs, starts).tobytes() == np.array(combine_loop).tobytes()


def test_run_starts_of_rows():
    keys = np.array([[0, 1], [0, 1], [0, 2], [1, 2], [1, 2]])
    assert run_starts(keys).tolist() == [0, 2, 3]
    assert run_starts(keys[:0]).tolist() == []


@given(
    st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n, max_size=n))
    )
)
def test_pack_unpack_round_trip(args):
    from repro.decoders.kernels.plane import pack_words, unpack_words

    n, bits = args
    arr = np.array(bits, dtype=bool)[None, :]
    assert np.array_equal(unpack_words(pack_words(arr), n), arr)

