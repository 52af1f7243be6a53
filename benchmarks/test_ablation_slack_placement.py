"""Ablation: Active slack placed before vs after each round.

The paper says the idle can go "before the start of (or after the end of)
every round"; this ablation checks the two placements are interchangeable.
"""

from repro.core import make_policy
from repro.experiments import SurgeryLerConfig, run_surgery_ler
from repro.figures.bench import record, run_once
from repro.noise import IBM

DISTANCE = 3
SHOTS = 12_000
SEED = 2025


def test_ablation_slack_placement(benchmark):
    def run():
        out = {}
        for placement in ("before", "after"):
            cfg = SurgeryLerConfig(
                distance=DISTANCE,
                hardware=IBM,
                policy_name="active",
                tau_ns=1000.0,
                policy_args=(("placement", placement),),
            )
            res = run_surgery_ler(
                cfg, make_policy("active", placement=placement), SHOTS, SEED
            )
            out[placement] = res.estimates[1].rate
        return out

    lers = run_once(benchmark, run)
    print(f"\nActive slack placement: before={lers['before']:.5f} after={lers['after']:.5f}")
    record("ablation_slack_placement", lers)

    # the two placements are statistically interchangeable
    hi, lo = max(lers.values()), max(min(lers.values()), 1e-6)
    assert hi / lo < 1.6
