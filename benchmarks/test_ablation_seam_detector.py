"""Ablation: annotating the seam-product parity as a detector.

Off (default, paper-faithful): the joint observable is read from the final
transversal data and has fault distance d.  On: the decoder is told the
outcome of the logical joint measurement, which collapses the joint
observable's graphlike error space entirely — a markedly lower LER that is
*not* the per-operation quantity the paper reports.
"""

from repro.core import make_policy
from repro.experiments import SurgeryLerConfig, run_surgery_ler
from repro.figures.bench import record, run_once
from repro.noise import IBM

DISTANCE = 3
SHOTS = 12_000
SEED = 2025


def test_ablation_seam_detector(benchmark):
    def run():
        out = {}
        for hub in (False, True):
            cfg = SurgeryLerConfig(
                distance=DISTANCE,
                hardware=IBM,
                policy_name="passive",
                tau_ns=1000.0,
                include_seam_detector=hub,
            )
            res = run_surgery_ler(cfg, make_policy("passive"), SHOTS, SEED)
            out[hub] = {
                "joint": res.estimates[1].rate,
                "single": res.estimates[0].rate,
            }
        return out

    lers = run_once(benchmark, run)
    print(
        f"\nseam detector off: joint={lers[False]['joint']:.5f}  "
        f"on: joint={lers[True]['joint']:.5f}"
    )
    record(
        "ablation_seam_detector",
        {("on" if k else "off"): v for k, v in lers.items()},
    )

    # the hub detector can only help the joint observable
    assert lers[True]["joint"] <= lers[False]["joint"] * 1.05
