"""Batch decoding engine tests: dedup equivalence, counters, streaming.

Covers the decoder-equivalence contract (``decode_batch(dets)`` equals the
per-shot ``decode`` loop for every decoder), the engine's decode counters,
the streaming LER pipeline and its regression fixes (empty sampling, fair-coin
errors, explicit detector masking, bounded pipeline cache), and the
serial-only ``decode_workers`` contract of ``run_surgery_ler``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.codes import memory_experiment
from repro.core import make_policy
from repro.decoders import (
    BatchDecodingEngine,
    MWPMDecoder,
    UnionFindDecoder,
    build_matching_graph,
    expand_obs_masks,
)
from repro.experiments import ler as ler_module
from repro.experiments import run_surgery_ler
from repro.experiments.ler import SurgeryLerConfig, _count_failures, prepared_pipeline
from repro.noise import GOOGLE, NoiseModel
from repro.stab import DemSampler, circuit_to_dem
from repro.stab.dem import DemError, DetectorErrorModel


def _expand_reference(masks, nobs):
    """Independent (slow) bitmask expansion used to check the vectorized one."""
    out = np.zeros((len(masks), nobs), dtype=bool)
    for s, mask in enumerate(masks):
        for o in range(nobs):
            out[s, o] = bool(mask >> o & 1)
    return out


@pytest.fixture(scope="module")
def surface_fixture():
    noise = NoiseModel(hardware=GOOGLE, p=2e-3, idle_scale=0.0)
    art = memory_experiment(3, 3, noise)
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    det, _ = DemSampler(dem).sample(4000, rng=11)
    return graph, det


# ---------------------------------------------------------------------------
# decoder equivalence: decode_batch == per-shot decode loop, for all decoders
# ---------------------------------------------------------------------------


def test_expand_obs_masks_matches_reference():
    masks = [0, 1, 2, 3, 5, (1 << 63) | 1]
    for nobs in (0, 1, 2, 64):
        got = expand_obs_masks(np.array(masks, dtype=np.uint64), nobs)
        assert np.array_equal(got, _expand_reference(masks, nobs))


@pytest.mark.parametrize("factory", ["unionfind", "mwpm"])
def test_decode_batch_equals_per_shot_loop(surface_fixture, factory):
    graph, det = surface_fixture
    det = det[:600]

    def build():
        return UnionFindDecoder(graph) if factory == "unionfind" else MWPMDecoder(graph)

    dec = build()
    batched = dec.decode_batch(det)
    reference = _expand_reference(
        [build().decode(det[s]) for s in range(det.shape[0])], graph.num_observables
    )
    assert np.array_equal(batched, reference)
    assert np.array_equal(build().decode_batch(det, dedup=False), reference)


def test_decode_batch_on_random_syndromes(surface_fixture):
    graph, _ = surface_fixture
    rng = np.random.default_rng(99)
    det = rng.random((120, graph.num_detectors)) < 0.05
    dec = UnionFindDecoder(graph)
    reference = _expand_reference(
        [dec.decode(det[s]) for s in range(det.shape[0])], graph.num_observables
    )
    assert np.array_equal(dec.decode_batch(det), reference)


# ---------------------------------------------------------------------------
# dedup mechanics and engine counters
# ---------------------------------------------------------------------------


class _CountingUnionFind(UnionFindDecoder):
    def __init__(self, graph):
        super().__init__(graph)
        self.calls = 0

    def decode(self, detectors):
        self.calls += 1
        return super().decode(detectors)

    def _decode_one_defects(self, defects):
        self.calls += 1
        return super()._decode_one_defects(defects)


def test_dedup_decodes_each_distinct_syndrome_once(surface_fixture):
    graph, det = surface_fixture
    det = det[:1000]
    distinct = np.unique(np.packbits(det, axis=-1), axis=0).shape[0]
    dec = _CountingUnionFind(graph)
    dec.decode_batch(det)
    assert dec.calls == distinct < det.shape[0]


def test_engine_stats_accumulate_across_batches(surface_fixture):
    graph, det = surface_fixture
    dec = _CountingUnionFind(graph)
    engine = BatchDecodingEngine(dec, dedup=True)
    first = engine.decode_batch(det[:800])
    calls_after_first = dec.calls
    second = engine.decode_batch(det[:800])  # identical batch: decoded afresh
    assert dec.calls == 2 * calls_after_first
    assert np.array_equal(first, second)
    assert engine.stats.batches == 2
    assert engine.stats.shots == 1600
    assert engine.stats.decode_calls == dec.calls
    assert 0.0 < engine.stats.dedup_hit_rate < 1.0


def test_engine_decode_counters_at_high_p():
    # p = 5e-3: syndromes are heavy enough that within-batch dedup decays
    noise = NoiseModel(hardware=GOOGLE, p=5e-3, idle_scale=0.0)
    art = memory_experiment(3, 3, noise)
    dem = circuit_to_dem(art.circuit)
    graph = build_matching_graph(dem, basis="Z")
    det, _ = DemSampler(dem).sample(6000, rng=21)
    engine = BatchDecodingEngine(UnionFindDecoder(graph), dedup=True)
    per_batch = []
    for start in range(0, det.shape[0], 1500):
        batch = det[start : start + 1500]
        engine.decode_batch(batch)
        per_batch.append(np.unique(np.packbits(batch, axis=-1), axis=0).shape[0])
    stats = engine.stats
    # every batch decodes its own distinct rows once, nothing carries over
    assert stats.batches == len(per_batch) == 4
    assert stats.distinct_syndromes == sum(per_batch)
    assert stats.decode_calls == stats.distinct_syndromes
    assert stats.dedup_hit_rate == pytest.approx(1.0 - sum(per_batch) / stats.shots)
    # dedup alone leaves plenty of distinct rows at this p
    assert stats.distinct_syndromes / stats.shots > 0.1


def test_engine_without_dedup_matches_engine_with_dedup(surface_fixture):
    graph, det = surface_fixture
    det = det[:400]
    fast = BatchDecodingEngine(UnionFindDecoder(graph), dedup=True)
    slow = BatchDecodingEngine(UnionFindDecoder(graph), dedup=False)
    assert np.array_equal(fast.decode_batch(det), slow.decode_batch(det))
    assert slow.stats.decode_calls == det.shape[0]
    assert fast.stats.decode_calls < slow.stats.decode_calls


def test_decode_batch_empty_and_bad_shapes(surface_fixture):
    graph, _ = surface_fixture
    dec = UnionFindDecoder(graph)
    out = dec.decode_batch(np.zeros((0, graph.num_detectors), dtype=bool))
    assert out.shape == (0, graph.num_observables)
    with pytest.raises(ValueError):
        dec.decode_batch(np.zeros(graph.num_detectors, dtype=bool))
    with pytest.raises(ValueError):  # column-misaligned input must not decode
        dec.decode_batch(np.zeros((4, graph.num_detectors + 1), dtype=bool))


# ---------------------------------------------------------------------------
# sampler regressions: zero shots, fair coins
# ---------------------------------------------------------------------------


def _dem(errors, ndet=3, nobs=1):
    return DetectorErrorModel.from_errors(
        errors=[DemError(p, d, o) for p, d, o in errors],
        num_detectors=ndet,
        num_observables=nobs,
        detector_coords=[()] * ndet,
        detector_basis=["Z"] * ndet,
    )


def test_sample_zero_shots_returns_empty_arrays():
    sampler = DemSampler(_dem([(0.2, (0,), (0,)), (0.1, (1, 2), ())]))
    det, obs = sampler.sample(0, rng=0)
    assert det.shape == (0, 3) and det.dtype == bool
    assert obs.shape == (0, 1) and obs.dtype == bool
    det, obs, err = sampler.sample(0, rng=0, return_errors=True)
    assert det.shape == (0, 3)
    assert isinstance(err, sp.csr_matrix) and err.shape == (0, 2)
    assert list(sampler.sample_batches(0, rng=0)) == []


def test_sample_negative_shots_rejected():
    sampler = DemSampler(_dem([(0.2, (0,), ())]))
    with pytest.raises(ValueError):
        sampler.sample(-1, rng=0)


def test_sample_zero_batch_size_rejected():
    sampler = DemSampler(_dem([(0.2, (0,), ())]))
    with pytest.raises(ValueError):
        sampler.sample(100, rng=0, batch_size=0)


def test_fair_coin_error_sampled_exactly():
    sampler = DemSampler(_dem([(0.5, (0,), (0,))]))
    assert sampler._rates[0] == 0.0  # not clipped into a huge dart rate
    det, obs = sampler.sample(40000, rng=5)
    assert det[:, 0].mean() == pytest.approx(0.5, abs=0.01)
    assert np.array_equal(det[:, 0], obs[:, 0])


def test_fair_coin_mixes_with_other_mechanisms():
    sampler = DemSampler(
        _dem([(0.5, (0,), ()), (0.3, (1,), ()), (0.7, (2,), ())])
    )
    det, _ = sampler.sample(60000, rng=6)
    assert det[:, 0].mean() == pytest.approx(0.5, abs=0.01)
    assert det[:, 1].mean() == pytest.approx(0.3, abs=0.01)
    assert det[:, 2].mean() == pytest.approx(0.7, abs=0.01)


def test_heavy_error_folding_still_hits_fair_coin_path():
    # p > 1/2 folds to 1-p; exactly 1/2 after folding is impossible, but the
    # pre-fold 0.5 case must not be caught by the heavy branch
    sampler = DemSampler(_dem([(0.5, (0,), ())]))
    assert not sampler._det_offset[0]
    assert sampler._fair.tolist() == [0]


def test_sample_batches_streams_like_sample():
    sampler = DemSampler(_dem([(0.1, (0, 1), (0,)), (0.05, (2,), ())]))
    det_a, obs_a = sampler.sample(5000, rng=7, batch_size=512)
    parts = list(sampler.sample_batches(5000, rng=7, batch_size=512))
    det_b = np.concatenate([p[0] for p in parts])
    obs_b = np.concatenate([p[1] for p in parts])
    assert np.array_equal(det_a, det_b)
    assert np.array_equal(obs_a, obs_b)
    assert all(p[0].shape[0] <= 512 for p in parts)


# ---------------------------------------------------------------------------
# streaming LER pipeline + its guards and caches
# ---------------------------------------------------------------------------


def _config(tau_ns=500.0, policy="passive"):
    return SurgeryLerConfig(
        distance=2, hardware=GOOGLE, policy_name=policy, tau_ns=tau_ns
    )


def test_count_failures_pads_and_truncates():
    masks = np.array([0b01, 0b10, 0b11, 0b00], dtype=np.uint64)
    flips = np.array([[0b001], [0b000], [0b111], [0b100]], dtype=np.uint64)
    # the graph tracks 2 of 3 observables: observable 2 fails on its flips
    assert _count_failures(masks, flips, 3, 2).tolist() == [0, 1, 2]
    # a graph tracking more observables than the samples is truncated
    assert _count_failures(masks, flips, 1, 2).tolist() == [0]
    # observables past the first word are never predicted
    wide = np.zeros((4, 2), dtype=np.uint64)
    wide[:, 0] = flips[:, 0]
    wide[1:3, 1] = 1 << 2
    assert _count_failures(masks, wide, 67, 2).tolist()[:3] == [0, 1, 2]
    assert _count_failures(masks, wide, 67, 2).tolist()[64:] == [0, 0, 2]


def test_mask_detectors_is_explicit(surface_fixture):
    pipe = prepared_pipeline(_config(), make_policy("passive"))
    det, _ = pipe.sampler.sample(16, rng=0)
    masked = pipe.mask_detectors(det)
    assert masked.shape == (16, pipe.graph.num_detectors)
    with pytest.raises(ValueError):
        pipe.mask_detectors(det[:, :-1])  # wrong width is an error, not a guess
    with pytest.raises(ValueError):
        pipe.mask_detectors(det[0])


def test_streaming_matches_single_batch_decode():
    cfg = _config()
    pol = make_policy("passive")
    whole = run_surgery_ler(cfg, pol, 3000, rng=9, batch_size=3000)
    streamed = run_surgery_ler(cfg, pol, 3000, rng=9, batch_size=3000, dedup=False)
    assert [e.successes for e in whole.estimates] == [
        e.successes for e in streamed.estimates
    ]
    assert whole.decode_stats["decode_calls"] < 3000


def test_pipeline_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(ler_module, "PIPELINE_CACHE_SIZE", 2)
    ler_module.clear_pipeline_cache()
    pol = make_policy("passive")
    for tau in (100.0, 200.0, 300.0):
        prepared_pipeline(_config(tau_ns=tau), pol)
    assert len(ler_module._PIPELINE_CACHE) == 2
    keys = list(ler_module._PIPELINE_CACHE)
    assert keys[0][0].tau_ns == 200.0  # oldest surviving entry
    assert keys[1][0].tau_ns == 300.0
    ler_module.clear_pipeline_cache()
    assert len(ler_module._PIPELINE_CACHE) == 0


def test_pipeline_cache_key_is_stable_across_instances():
    ler_module.clear_pipeline_cache()
    cfg = _config(policy="active")
    a = prepared_pipeline(cfg, make_policy("active", placement="before"))
    b = prepared_pipeline(cfg, make_policy("active", placement="before"))
    c = prepared_pipeline(cfg, make_policy("active", placement="after"))
    assert a is b
    assert a is not c


# ---------------------------------------------------------------------------
# run_surgery_ler is serial: pooled decoding goes through run_sweep
# ---------------------------------------------------------------------------


def test_run_surgery_ler_accepts_only_one_decode_worker():
    cfg = _config()
    pol = make_policy("passive")
    one = run_surgery_ler(cfg, pol, 300, rng=3, decode_workers=1)
    default = run_surgery_ler(cfg, pol, 300, rng=3)
    assert [e.successes for e in one.estimates] == [e.successes for e in default.estimates]
    for workers in (0, 2, None):
        with pytest.raises(ValueError, match=r"run_sweep\(workers=N\)"):
            run_surgery_ler(cfg, pol, 300, rng=3, decode_workers=workers)
