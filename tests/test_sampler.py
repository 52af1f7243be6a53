"""DEM-sampler tests: statistics, batching, reproducibility, oracle parity."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from factories import d9_cold_dem, numpy_plane, random_dem
from sampler_oracle import OracleSampler

from repro.decoders.kernels.plane import pack_words
from repro.stab import DemSampler
from repro.stab.dem import DemError, DetectorErrorModel


def _dem(errors, ndet=3, nobs=1):
    return DetectorErrorModel.from_errors(
        errors=[DemError(p, d, o) for p, d, o in errors],
        num_detectors=ndet,
        num_observables=nobs,
        detector_coords=[()] * ndet,
        detector_basis=["Z"] * ndet,
    )


def test_single_error_rate():
    dem = _dem([(0.25, (0,), (0,))])
    sampler = DemSampler(dem)
    det, obs = sampler.sample(40000, rng=0)
    assert det[:, 0].mean() == pytest.approx(0.25, abs=0.01)
    assert obs[:, 0].mean() == pytest.approx(0.25, abs=0.01)
    assert np.array_equal(det[:, 0], obs[:, 0])


def test_two_errors_on_same_detector_xor():
    dem = _dem([(0.3, (0,), ()), (0.3, (0,), (0,))])
    # distinct signatures (observables differ) stay separate mechanisms
    det, obs = DemSampler(dem).sample(60000, rng=1)
    expected = 0.3 * 0.7 + 0.7 * 0.3
    assert det[:, 0].mean() == pytest.approx(expected, abs=0.01)


def test_zero_probability_never_fires():
    dem = _dem([(0.0, (0,), (0,))])
    det, obs = DemSampler(dem).sample(1000, rng=2)
    assert det.sum() == 0 and obs.sum() == 0


def test_high_probability_error():
    dem = _dem([(0.95, (1,), ())])
    det, _ = DemSampler(dem).sample(20000, rng=3)
    assert det[:, 1].mean() == pytest.approx(0.95, abs=0.01)


def test_batching_does_not_change_statistics():
    dem = _dem([(0.1, (0, 1), (0,)), (0.05, (2,), ())])
    sampler = DemSampler(dem)
    det_a, _ = sampler.sample(30000, rng=7, batch_size=30000)
    det_b, _ = sampler.sample(30000, rng=7, batch_size=512)
    assert np.allclose(det_a.mean(axis=0), det_b.mean(axis=0), atol=0.01)


def test_return_errors_matrix():
    dem = _dem([(0.2, (0,), ()), (0.2, (1,), ())])
    det, obs, err = DemSampler(dem).sample(5000, rng=4, return_errors=True)
    assert err.shape == (5000, 2)
    # detector outcomes must be exactly the error matrix columns here
    assert np.array_equal(det[:, 0], err.toarray()[:, 0].astype(bool))


def test_empty_model():
    dem = _dem([])
    det, obs = DemSampler(dem).sample(100, rng=5)
    assert det.shape == (100, 3)
    assert det.sum() == 0


def test_num_errors_property():
    dem = _dem([(0.1, (0,), ()), (0.2, (1,), ())])
    assert DemSampler(dem).num_errors == 2


# ---------------------------------------------------------------------------
# packed data plane: bit-identity with the sparse oracle sampler
# ---------------------------------------------------------------------------

_WIDTHS = (0, 1, 63, 64, 65, 128, 129)


@st.composite
def _random_dems(draw):
    """Random DEMs over word-boundary widths: heavy, fair-coin and empty models."""
    ndet = draw(st.sampled_from(_WIDTHS))
    nobs = draw(st.integers(0, 2))
    prob = st.one_of(
        st.floats(0.0, 0.3), st.just(0.5), st.floats(0.55, 0.99), st.just(0.0)
    )
    targets = lambda n: st.lists(st.integers(0, n - 1), max_size=4) if n else st.just([])
    errors = draw(
        st.lists(st.tuples(prob, targets(ndet), targets(nobs)), max_size=30)
    )
    keep = draw(st.lists(st.booleans(), min_size=ndet, max_size=ndet))
    return _dem(errors, ndet=ndet, nobs=nobs), np.array(keep, dtype=bool)


def _oracle_batches(dem, shots, seed, batch_size):
    sampler = OracleSampler(dem)
    return list(sampler.sample_batches(shots, np.random.default_rng(seed), batch_size=batch_size))


@settings(max_examples=60, deadline=None)
@given(
    case=_random_dems(),
    shots=st.sampled_from([0, 1, 7, 300]),
    batch_size=st.sampled_from([1, 64, 65536]),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_words_match_oracle(case, shots, batch_size, seed):
    dem, keep = case
    if shots > 7 and batch_size == 1:
        batch_size = 64  # keep one example cheap
    expected = _oracle_batches(dem, shots, seed, batch_size)
    sampler = DemSampler(dem)
    projected = sampler.projected(keep)
    for plane_ctx in (contextlib.nullcontext, numpy_plane):
        with plane_ctx():
            got = list(sampler.packed_batches(shots, seed, batch_size=batch_size))
            got_projected = list(projected.packed_batches(shots, seed, batch_size=batch_size))
            got_bool = list(sampler.sample_batches(shots, seed, batch_size=batch_size, return_errors=True))
        assert len(got) == len(got_projected) == len(got_bool) == len(expected)
        for (det_w, obs_w), (pdet_w, pobs_w), (det, obs, err), (odet, oobs, oerr) in zip(
            got, got_projected, got_bool, expected
        ):
            assert np.array_equal(det_w, pack_words(odet))
            assert np.array_equal(obs_w, pack_words(oobs))
            assert np.array_equal(pdet_w, pack_words(odet[:, keep]))
            assert np.array_equal(pobs_w, obs_w)
            assert np.array_equal(det, odet) and np.array_equal(obs, oobs)
            assert np.array_equal(err.toarray(), oerr.toarray())


def test_sample_matches_oracle_on_a_surgery_dem():
    from repro import GOOGLE, SurgeryLerConfig, make_policy
    from repro.experiments.ler import prepared_pipeline

    cfg = SurgeryLerConfig(distance=3, hardware=GOOGLE, policy_name="active", tau_ns=1000.0, p=3e-3)
    pipe = prepared_pipeline(cfg, make_policy("active"))
    (odet, oobs, _), = _oracle_batches(pipe.dem, 2000, 9, 65536)
    det, obs = pipe.sampler.sample(2000, rng=9)
    assert np.array_equal(det, odet) and np.array_equal(obs, oobs)
    (det_w, _), = pipe.graph_sampler.packed_batches(2000, 9)
    assert np.array_equal(det_w, pack_words(pipe.mask_detectors(odet)))


def test_projected_rejects_a_wrong_width_mask():
    sampler = DemSampler(_dem([(0.1, (0, 1), (0,))]))
    assert sampler.projected(np.ones(3, dtype=bool)) is sampler
    with pytest.raises(ValueError):
        sampler.projected(np.ones(2, dtype=bool))


def _assert_words_match_oracle(dem, keep, shots, seed, batch_size):
    """Packed words of ``dem``'s sampler and of its projection onto ``keep``
    are ``==`` the packed oracle samples drawn from the same seed."""
    expected = _oracle_batches(dem, shots, seed, batch_size)
    sampler = DemSampler(dem)
    got = list(sampler.packed_batches(shots, seed, batch_size=batch_size))
    projected = sampler.projected(keep)
    got_projected = list(projected.packed_batches(shots, seed, batch_size=batch_size))
    assert len(got) == len(got_projected) == len(expected) > 0
    for (det_w, obs_w), (pdet_w, pobs_w), (odet, oobs, _) in zip(got, got_projected, expected):
        assert np.array_equal(det_w, pack_words(odet))
        assert np.array_equal(obs_w, pack_words(oobs))
        assert np.array_equal(pdet_w, pack_words(odet[:, keep]))
        assert np.array_equal(pobs_w, obs_w)


@pytest.mark.parametrize("seed", range(30))
def test_packed_words_match_oracle_on_random_dems(seed):
    dem = random_dem(seed)
    keep = np.array([b == "Z" for b in dem.detector_basis])
    _assert_words_match_oracle(dem, keep, shots=700, seed=seed, batch_size=256)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_packed_words_match_oracle_on_the_d9_cold_point(basis):
    dem = d9_cold_dem()
    keep = np.array([b == basis for b in dem.detector_basis])
    _assert_words_match_oracle(dem, keep, shots=2000, seed=11, batch_size=65536)
