"""Predecoder tests: locality, accuracy preservation, offload statistics.

Graphs and samples come from the shared fixture factory in ``conftest.py``
(``chain_graph``, ``surface_case``, ``dense_syndromes``).
"""

import numpy as np
import pytest

from repro.decoders import UnionFindDecoder
from repro.decoders.predecoder import PredecodedDecoder, Predecoder


def test_isolated_pair_removed(chain_graph):
    pre = Predecoder(chain_graph(4))
    syndrome = np.array([False, True, True, False])
    residual, mask, removed = pre.apply(syndrome)
    assert removed == 2
    assert not residual.any()
    assert mask == 0  # interior edge carries no observable


def test_lonely_boundary_defect_removed(chain_graph):
    pre = Predecoder(chain_graph(4))
    syndrome = np.array([True, False, False, False])
    residual, mask, removed = pre.apply(syndrome)
    assert removed == 1
    assert not residual.any()
    assert mask == 1  # the left boundary edge flips the observable


def test_ambiguous_cluster_left_for_global_decoder(chain_graph):
    pre = Predecoder(chain_graph(4))
    syndrome = np.array([True, True, True, False])  # 3 in a row: ambiguous
    residual, mask, removed = pre.apply(syndrome)
    assert residual.sum() >= 1  # something survives for the slow decoder


def test_predecoded_matches_plain_decoder_accuracy(surface_case):
    g, det, obs = surface_case(3, 1e-3, 30000, 2)
    plain = UnionFindDecoder(g)
    wrapped = PredecodedDecoder(g, UnionFindDecoder(g))
    ler_plain = float((plain.decode_batch(det)[:, :1] ^ obs).mean())
    ler_wrapped = float((wrapped.decode_batch(det)[:, :1] ^ obs).mean())
    # local pairs are optimal moves at low p: accuracy within a small factor
    assert ler_wrapped <= max(2.0 * ler_plain, ler_plain + 5e-4)


def test_offload_statistics(surface_case):
    g, det, _ = surface_case(3, 1e-3, 5000, 3)
    wrapped = PredecodedDecoder(g, UnionFindDecoder(g))
    wrapped.decode_batch(det)
    stats = wrapped.stats
    assert stats.shots == 5000
    # at p=1e-3 almost every nontrivial shot is a single isolated pair
    assert stats.removal_fraction > 0.5
    assert stats.offload_fraction > 0.9


# ---------------------------------------------------------------------------
# vectorized batch pass: bit-identical to the scalar per-row loop
# ---------------------------------------------------------------------------


def test_apply_batch_matches_scalar_on_chain_graph(chain_graph):
    pre = Predecoder(chain_graph(4))
    # every syndrome of the 4-detector chain, exhaustively
    rows = np.array(
        [[bool(v >> i & 1) for i in range(4)] for v in range(16)], dtype=bool
    )
    residuals, masks, removed = pre.apply_batch(rows)
    for i in range(rows.shape[0]):
        res, mask, rem = pre.apply(rows[i])
        assert np.array_equal(residuals[i], res), rows[i]
        assert int(masks[i]) == mask, rows[i]
        assert removed[i] == rem, rows[i]


@pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.3])
def test_apply_batch_matches_scalar_on_surface_graph(
    surface_case, dense_syndromes, density
):
    g, _, _ = surface_case(3, 1e-3, 5000, 3)  # shares the offload test's case
    rows = dense_syndromes(g, 300, density, seed=int(density * 100))
    pre = Predecoder(g)
    residuals, masks, removed = pre.apply_batch(rows)
    for i in range(rows.shape[0]):
        res, mask, rem = pre.apply(rows[i])
        assert np.array_equal(residuals[i], res)
        assert int(masks[i]) == mask
        assert removed[i] == rem


def test_apply_batch_rejects_bad_shapes(chain_graph):
    pre = Predecoder(chain_graph(4))
    with pytest.raises(ValueError):
        pre.apply_batch(np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        pre.apply_batch(np.zeros((2, 5), dtype=bool))


def test_predecoded_batch_path_uses_vectorized_pass(surface_case, monkeypatch):
    g, det, _ = surface_case(3, 1e-3, 4000, 5)
    wrapped = PredecodedDecoder(g, UnionFindDecoder(g))
    calls = {"scalar": 0}
    original = Predecoder.apply

    def counting_apply(self, detectors):
        calls["scalar"] += 1
        return original(self, detectors)

    monkeypatch.setattr(Predecoder, "apply", counting_apply)
    batched = wrapped.decode_batch(det)
    assert calls["scalar"] == 0  # no per-syndrome python pass on the fast path
    reference = PredecodedDecoder(g, UnionFindDecoder(g))
    assert np.array_equal(batched, reference.decode_batch(det, dedup=False))
    assert vars(wrapped.stats) == vars(reference.stats)


def test_predecode_stats_are_per_run_on_shared_pipeline_threads():
    """Two threads decoding one shared pipeline's cached predecoder each get
    exactly their own offload statistics — equal to the same call run
    serially, not inflated by the other thread's shots."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro import GOOGLE, SurgeryLerConfig, make_policy, run_surgery_ler
    from repro.experiments.ler import clear_pipeline_cache, prepared_pipeline

    cfg = SurgeryLerConfig(
        distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=500.0, p=5e-3
    )
    policy = make_policy("passive")
    clear_pipeline_cache()
    pipe = prepared_pipeline(cfg, policy)

    def run(seed):
        result = run_surgery_ler(
            cfg, policy, 20_000, rng=seed, decoder="predecoded",
            batch_size=2000, pipeline=pipe,
        )
        return result.decode_stats["predecode"]

    seeds = (1, 2)
    serial = [run(seed) for seed in seeds]
    start = threading.Barrier(len(seeds))

    def threaded(seed):
        start.wait()  # both runs overlap from their first batch
        return run(seed)

    with ThreadPoolExecutor(len(seeds)) as pool:
        concurrent = list(pool.map(threaded, seeds))
    clear_pipeline_cache()
    assert serial[0]["shots"] == serial[1]["shots"] == 20_000
    assert concurrent == serial
