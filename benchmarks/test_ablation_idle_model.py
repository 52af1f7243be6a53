"""Ablation: sensitivity of the headline comparison to the idle-noise model.

DESIGN.md substitutes calibrated DD on the periodic in-cycle idles
(``structural_idle_scale``, default 0.25) for the paper's fully conservative
twirl.  This ablation re-measures Active-vs-Passive at three settings —
0.1 (aggressive DD), 0.25 (default), 1.0 (paper's conservative model) — to
show the *comparison* the paper makes survives the modelling choice, even
though absolute LERs move.
"""

import numpy as np

from repro.core import make_policy
from repro.experiments.ler import SurgeryLerConfig, prepared_pipeline
from repro.figures.bench import record, run_once
from repro.noise import GOOGLE
from repro.stab.sampler import DemSampler

SHOTS = 12_000
SEED = 2025


def test_ablation_idle_model(benchmark):
    def run():
        out = {}
        rng = np.random.default_rng(SEED)
        for scale in (0.1, 0.25, 1.0):
            lers = {}
            for name in ("passive", "active"):
                cfg = SurgeryLerConfig(
                    distance=3,
                    hardware=GOOGLE,
                    policy_name=name,
                    tau_ns=1000.0,
                    policy_args=(("structural_scale_tag", scale),),
                )
                pipe = prepared_pipeline(cfg, make_policy(name))
                # rebuild the pipeline's noise at the ablated scale by
                # regenerating the experiment with a modified noise model
                from repro.codes.surgery import SurgerySpec, surgery_experiment
                from repro.decoders import UnionFindDecoder, build_matching_graph
                from repro.noise import NoiseModel
                from repro.stab import circuit_to_dem

                noise = NoiseModel(hardware=GOOGLE, p=1e-3, structural_idle_scale=scale)
                art = surgery_experiment(
                    SurgerySpec(
                        distance=3,
                        noise=noise,
                        ls_basis="Z",
                        timeline_p=pipe.plan.timeline_p,
                        timeline_pp=pipe.plan.timeline_pp,
                    )
                )
                dem = circuit_to_dem(art.circuit)
                graph = build_matching_graph(dem, basis=art.detector_basis)
                det, obs = DemSampler(dem).sample(SHOTS, rng)
                pred = UnionFindDecoder(graph).decode_batch(det)
                lers[name] = float((pred[:, 1] ^ obs[:, 1]).mean())
            out[scale] = lers
        return out

    data = run_once(benchmark, run)
    print("\nscale  LER(passive)  LER(active)  reduction")
    for scale, lers in sorted(data.items()):
        red = lers["passive"] / lers["active"] if lers["active"] else float("inf")
        print(f"{scale:5.2f}  {lers['passive']:.5f}      {lers['active']:.5f}     {red:.2f}x")
    record("ablation_idle_model", {str(k): v for k, v in data.items()})

    # absolute LER grows with the structural-idle scale ...
    passives = [data[s]["passive"] for s in (0.1, 0.25, 1.0)]
    assert passives[0] < passives[2]
    # ... while Active never loses badly under any of the three models
    for scale, lers in data.items():
        assert lers["active"] <= lers["passive"] * 1.25
