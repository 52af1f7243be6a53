"""Extension beyond the paper: does Active synchronization survive k > 2?

Sec. 4.3 argues k-patch synchronization reduces to parallel pairwise plans
but evaluates LER only for two patches.  This bench merges three patches in
one synchronized operation, with the leading patches idling their pairwise
slack against the slowest patch, and checks the Passive-vs-Active comparison
carries over.
"""

import numpy as np

from repro.codes.multi_surgery import MultiSurgerySpec, multi_patch_surgery_experiment
from repro.decoders import UnionFindDecoder, build_matching_graph
from repro.figures.bench import record, run_once
from repro.noise import GOOGLE, NoiseModel
from repro.stab import circuit_to_dem
from repro.stab.sampler import DemSampler
from repro.timing import PatchTimeline

SHOTS = 12_000
SEED = 2025
TAUS_NS = (1000.0, 500.0, 0.0)  # pairwise slack of each patch vs the slowest


def _timelines(policy: str, base: int):
    out = []
    for tau in TAUS_NS:
        if policy == "passive":
            tl = PatchTimeline.uniform(base)
            tl.final_idle_ns = tau
        else:
            tl = PatchTimeline.uniform(base, pre_ns=tau / base)
        out.append(tl)
    return tuple(out)


def test_extension_three_patch_sync(benchmark):
    def run():
        noise = NoiseModel(hardware=GOOGLE, p=1e-3)
        d = 3
        out = {}
        rng = np.random.default_rng(SEED)
        for policy in ("passive", "active"):
            art = multi_patch_surgery_experiment(
                MultiSurgerySpec(
                    num_patches=3,
                    distance=d,
                    noise=noise,
                    timelines=_timelines(policy, d + 1),
                )
            )
            dem = circuit_to_dem(art.circuit)
            graph = build_matching_graph(dem, basis=art.detector_basis)
            det, obs = DemSampler(dem).sample(SHOTS, rng)
            pred = UnionFindDecoder(graph).decode_batch(det)
            out[policy] = {
                f"obs{k}": float((pred[:, k] ^ obs[:, k]).mean())
                for k in range(obs.shape[1])
            }
        return out

    data = run_once(benchmark, run)
    print("\npolicy   " + "  ".join(f"obs{k}" for k in range(4)))
    for policy, lers in data.items():
        print(f"{policy:8s}" + "  ".join(f"{lers[f'obs{k}']:.4f}" for k in range(4)))
    record("extension_kpatch", data)

    # the slack-free patch (obs2) is untouched by the policy choice
    assert abs(data["passive"]["obs2"] - data["active"]["obs2"]) < 0.01
    # the heavily-idled leading patch (obs0) prefers Active, or at worst ties
    assert data["active"]["obs0"] <= data["passive"]["obs0"] * 1.15
    # the all-patch product is the most exposed observable for both policies
    for lers in data.values():
        assert lers["obs3"] >= max(lers["obs0"], lers["obs2"]) * 0.8
