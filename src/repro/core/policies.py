"""Synchronization policies (Sec. 4 of the paper).

A policy turns a :class:`SyncScenario` — two patches with cycle times
``T_P``/``T_P'`` and a synchronization slack ``tau`` — into a
:class:`SyncPlan`: the pair of per-round idle timelines the circuit generator
stitches into the lattice-surgery experiment.

Policies:

* :class:`IdealPolicy` — no synchronization needed (the hypothetical
  perfectly-synchronized system of Fig. 15).
* :class:`PassivePolicy` — idle the leading patch for the whole slack right
  before lattice surgery.
* :class:`ActivePolicy` — split the slack evenly across the pre-merge
  rounds (before or after each round).
* :class:`ActiveIntraPolicy` — distribute the slack *inside* the final
  round's gate layers (Sec. 4.1.3).
* :class:`ExtraRoundsPolicy` — run extra rounds per Eq. (1) (requires
  ``T_P != T_P'``).
* :class:`HybridPolicy` — extra rounds per Eq. (2) plus Active-style
  distribution of the residual slack below the tolerance ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..timing.schedule import PatchTimeline, RoundIdle
from .slack import extra_rounds_solution, hybrid_solution, normalize_slack

__all__ = [
    "SyncScenario",
    "SyncPlan",
    "PolicyNotApplicableError",
    "IdealPolicy",
    "PassivePolicy",
    "ActivePolicy",
    "ActiveIntraPolicy",
    "ExtraRoundsPolicy",
    "HybridPolicy",
    "POLICIES",
    "make_policy",
    "policy_fields",
]


class PolicyNotApplicableError(ValueError):
    """The policy has no valid schedule for the given scenario."""


@dataclass(frozen=True)
class SyncScenario:
    """Synchronization problem instance for a two-patch merge."""

    #: syndrome cycle time of the leading patch P
    t_p_ns: float
    #: syndrome cycle time of the lagging patch P'
    t_pp_ns: float
    #: synchronization slack to absorb (phase difference, <= T_P')
    tau_ns: float
    #: pre-merge rounds both patches run before lattice surgery (d+1 (+R))
    base_rounds: int

    def __post_init__(self) -> None:
        if self.t_p_ns <= 0 or self.t_pp_ns <= 0:
            raise ValueError("cycle times must be positive")
        if self.tau_ns < 0:
            raise ValueError("slack must be non-negative")
        if self.base_rounds < 1:
            raise ValueError("need at least one pre-merge round")

    @property
    def cycle_extension_ns(self) -> float:
        """Extra per-round duration of the lagging patch (0 if equal cycles)."""
        return max(self.t_pp_ns - self.t_p_ns, 0.0)

    def normalized_tau(self) -> float:
        """Slack folded into one cycle of the slower patch."""
        return normalize_slack(self.tau_ns, max(self.t_p_ns, self.t_pp_ns))


@dataclass(frozen=True)
class SyncPlan:
    """Concrete schedule produced by a policy."""

    policy: str
    timeline_p: PatchTimeline
    timeline_pp: PatchTimeline
    extra_rounds_p: int = 0
    extra_rounds_pp: int = 0
    #: total slack actually absorbed by idling (0 for pure extra rounds)
    idle_ns: float = 0.0


def _lagging_timeline(scenario: SyncScenario, rounds: int) -> PatchTimeline:
    """P' timeline: cycle-time extension emulating its longer syndrome circuit."""
    return PatchTimeline.uniform(
        rounds, intra_ns=scenario.cycle_extension_ns, intra_is_structural=True
    )


class _BasePolicy:
    name = "base"

    def plan(self, scenario: SyncScenario) -> SyncPlan:  # pragma: no cover
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class IdealPolicy(_BasePolicy):
    """No-synchronization baseline: the slack is assumed away."""

    name = "ideal"

    def plan(self, scenario: SyncScenario) -> SyncPlan:
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        return SyncPlan(
            policy=self.name,
            timeline_p=PatchTimeline.uniform(scenario.base_rounds),
            timeline_pp=_lagging_timeline(scenario, scenario.base_rounds),
            idle_ns=0.0,
        )


class PassivePolicy(_BasePolicy):
    """Idle the leading patch for the whole slack right before the merge."""

    name = "passive"

    def plan(self, scenario: SyncScenario) -> SyncPlan:
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        timeline_p = PatchTimeline.uniform(scenario.base_rounds)
        timeline_p.final_idle_ns = scenario.tau_ns
        return SyncPlan(
            policy=self.name,
            timeline_p=timeline_p,
            timeline_pp=_lagging_timeline(scenario, scenario.base_rounds),
            idle_ns=scenario.tau_ns,
        )


class ActivePolicy(_BasePolicy):
    """Distribute the slack evenly across the pre-merge rounds."""

    name = "active"

    def __init__(self, placement: str = "before"):
        if placement not in ("before", "after"):
            raise ValueError("placement must be 'before' or 'after'")
        self.placement = placement

    def plan(self, scenario: SyncScenario) -> SyncPlan:
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        rounds = scenario.base_rounds
        per_round = scenario.tau_ns / rounds
        if self.placement == "before":
            timeline_p = PatchTimeline.uniform(rounds, pre_ns=per_round)
        else:
            # idling after round i == idling before round i+1, plus one final
            # idle segment right before the merge
            idles = [RoundIdle(pre_ns=0.0 if r == 0 else per_round) for r in range(rounds)]
            timeline_p = PatchTimeline(rounds=idles, final_idle_ns=per_round)
        return SyncPlan(
            policy=self.name,
            timeline_p=timeline_p,
            timeline_pp=_lagging_timeline(scenario, rounds),
            idle_ns=scenario.tau_ns,
        )


class ActiveIntraPolicy(_BasePolicy):
    """Distribute the slack across the gate layers of the final round."""

    name = "active_intra"

    def plan(self, scenario: SyncScenario) -> SyncPlan:
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        rounds = scenario.base_rounds
        idles = [
            RoundIdle(intra_ns=scenario.tau_ns if r == rounds - 1 else 0.0)
            for r in range(rounds)
        ]
        return SyncPlan(
            policy=self.name,
            timeline_p=PatchTimeline(rounds=idles),
            timeline_pp=_lagging_timeline(scenario, rounds),
            idle_ns=scenario.tau_ns,
        )


class ExtraRoundsPolicy(_BasePolicy):
    """Synchronize by running extra rounds only (Eq. 1)."""

    name = "extra_rounds"

    def __init__(self, max_rounds: int = 10_000):
        self.max_rounds = max_rounds

    def plan(self, scenario: SyncScenario) -> SyncPlan:
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        sol = extra_rounds_solution(
            scenario.t_p_ns, scenario.t_pp_ns, scenario.tau_ns, max_rounds=self.max_rounds
        )
        if sol is None:
            raise PolicyNotApplicableError(
                f"no extra-rounds solution for T_P={scenario.t_p_ns}, "
                f"T_P'={scenario.t_pp_ns}, tau={scenario.tau_ns}"
            )
        return SyncPlan(
            policy=self.name,
            timeline_p=PatchTimeline.uniform(scenario.base_rounds + sol.extra_rounds_p),
            timeline_pp=_lagging_timeline(
                scenario, scenario.base_rounds + sol.extra_rounds_pp
            ),
            extra_rounds_p=sol.extra_rounds_p,
            extra_rounds_pp=sol.extra_rounds_pp,
            idle_ns=0.0,
        )


class HybridPolicy(_BasePolicy):
    """Extra rounds down to a residual slack < eps, absorbed Active-style."""

    name = "hybrid"

    def __init__(self, eps_ns: float = 400.0, max_rounds: int = 10_000):
        self.eps_ns = eps_ns
        self.max_rounds = max_rounds

    def plan(self, scenario: SyncScenario) -> SyncPlan:
        """Produce the SyncPlan (idle timelines, extra rounds) for ``scenario``."""
        sol = hybrid_solution(
            scenario.t_p_ns,
            scenario.t_pp_ns,
            scenario.tau_ns,
            self.eps_ns,
            max_rounds=self.max_rounds,
        )
        if sol is None:
            raise PolicyNotApplicableError(
                f"no hybrid solution within {self.max_rounds} rounds for "
                f"T_P={scenario.t_p_ns}, T_P'={scenario.t_pp_ns}, "
                f"tau={scenario.tau_ns}, eps={self.eps_ns}"
            )
        rounds_p = scenario.base_rounds + sol.extra_rounds_p
        per_round = sol.residual_slack_ns / rounds_p
        return SyncPlan(
            policy=self.name,
            timeline_p=PatchTimeline.uniform(rounds_p, pre_ns=per_round),
            timeline_pp=_lagging_timeline(
                scenario, scenario.base_rounds + sol.extra_rounds_pp
            ),
            extra_rounds_p=sol.extra_rounds_p,
            extra_rounds_pp=sol.extra_rounds_pp,
            idle_ns=sol.residual_slack_ns,
        )


POLICIES = {
    "ideal": IdealPolicy,
    "passive": PassivePolicy,
    "active": ActivePolicy,
    "active_intra": ActiveIntraPolicy,
    "extra_rounds": ExtraRoundsPolicy,
    "hybrid": HybridPolicy,
}


def make_policy(name: str, **kwargs) -> _BasePolicy:
    """Instantiate a policy by registry name."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return POLICIES[name](**kwargs)


def policy_fields(policy: _BasePolicy) -> tuple:
    """Sorted ``(name, value)`` pairs of a policy's public constructor fields.

    The single source of truth for round-tripping a policy instance through
    :func:`make_policy` (sweep tasks) and for stable cache keys.
    """
    return tuple(sorted((k, v) for k, v in vars(policy).items() if not k.startswith("_")))
