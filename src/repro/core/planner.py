"""k-patch synchronization planning (Sec. 4.3, Fig. 20).

Generalizes two-patch synchronization: sort the patches by the time they need
to finish their current syndrome cycle, identify the slowest (most lagging)
patch, and synchronize every other patch pairwise against it.  All pairwise
computations are independent, which is why the paper calls the hardware cost
O(1): they can run in parallel.  This module is the software model whose
planned work Fig. 20 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PatchState", "PairDirective", "KSyncPlan", "plan_k_patch_sync"]


@dataclass(frozen=True)
class PatchState:
    """Runtime phase snapshot of one patch (counter-table row contents)."""

    patch_id: int
    cycle_ns: int
    elapsed_ns: int

    def __post_init__(self) -> None:
        if not 0 <= self.elapsed_ns < self.cycle_ns:
            raise ValueError("elapsed time must lie inside one cycle")

    @property
    def remaining_ns(self) -> int:
        return 0 if self.elapsed_ns == 0 else self.cycle_ns - self.elapsed_ns


@dataclass(frozen=True)
class PairDirective:
    """How one patch absorbs its slack against the slowest patch."""

    patch_id: int
    slack_ns: int
    policy: str
    extra_rounds: int = 0
    idle_ns: int = 0


@dataclass
class KSyncPlan:
    """Result of planning one k-patch synchronization."""

    slowest_patch: int
    directives: list[PairDirective] = field(default_factory=list)

    @property
    def max_slack_ns(self) -> int:
        return max((d.slack_ns for d in self.directives), default=0)

    @property
    def total_idle_ns(self) -> int:
        return sum(d.idle_ns for d in self.directives)


def plan_k_patch_sync(
    patches: list[PatchState],
    *,
    policy: str = "active",
    eps_ns: int = 400,
    max_rounds: int = 5,
) -> KSyncPlan:
    """Plan the synchronization of ``patches`` for one multi-patch operation.

    ``policy`` selects how each pair absorbs its slack: ``"active"``/
    ``"passive"`` idle the full slack; ``"hybrid"`` runs extra rounds per
    Eq. (2) when the patch pair's cycle times differ, falling back to idling.
    """
    if len(patches) < 2:
        raise ValueError("need at least two patches")
    if policy not in ("active", "passive", "hybrid"):
        raise ValueError(f"unknown planning policy {policy!r}")
    slowest = max(patches, key=lambda p: p.remaining_ns)
    plan = KSyncPlan(slowest_patch=slowest.patch_id)
    for patch in patches:
        if patch.patch_id == slowest.patch_id:
            continue
        slack = slowest.remaining_ns - patch.remaining_ns
        plan.directives.append(
            _pair_directive(patch, slowest, slack, policy, eps_ns, max_rounds)
        )
    return plan


def _pair_directive(
    patch: PatchState,
    slowest: PatchState,
    slack: int,
    policy: str,
    eps_ns: int,
    max_rounds: int,
) -> PairDirective:
    if slack == 0:
        return PairDirective(patch_id=patch.patch_id, slack_ns=0, policy="none")
    if policy == "hybrid" and patch.cycle_ns != slowest.cycle_ns:
        for z in range(1, max_rounds + 1):
            residual = (slack - z * patch.cycle_ns) % slowest.cycle_ns
            if residual < eps_ns:
                return PairDirective(
                    patch_id=patch.patch_id,
                    slack_ns=slack,
                    policy="hybrid",
                    extra_rounds=z,
                    idle_ns=residual,
                )
    effective = "active" if policy == "hybrid" else policy
    return PairDirective(
        patch_id=patch.patch_id, slack_ns=slack, policy=effective, idle_ns=slack
    )
