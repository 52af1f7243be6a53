"""The registered figure specs: every paper figure/table, one ``FigureSpec``.

Each spec is the whole figure: its default ``params``, the ``builder`` that
computes its rows, the LER ``sweeps`` it reads (LER specs only) and the
paper-value ``checks`` its rows must pass.  ``build_figure`` runs the
declared sweeps first and hands the builder their reports, so a point grid
is stated once, in ``sweeps=``; builders read point records and never
restate it.  ``benchmarks/test_figures.py`` builds every spec at its
defaults and runs its checks.
"""

from __future__ import annotations

import numpy as np

from ..casestudies.cultivation import cultivation_slack_distribution
from ..casestudies.qldpc_slack import qldpc_surface_slack
from ..codes.repetition import repetition_experiment
from ..core.planner import PatchState, plan_k_patch_sync
from ..core.policies import make_policy
from ..core.slack import extra_rounds_solution, hybrid_solution
from ..decoders.graph import build_matching_graph
from ..decoders.hierarchical import measure_decoder_latencies
from ..decoders.mwpm import MWPMDecoder
from ..decoders.unionfind import UnionFindDecoder
from ..experiments.ler import (
    DECODE_DEFAULTS,
    SurgeryLerConfig,
    prepared_pipeline,
    run_surgery_ler,
)
from ..experiments.sweeps import PolicySpec, SweepSpec
from ..noise.dd import BRISBANE_DD
from ..noise.hardware import GOOGLE, IBM, QUERA, SHERBROOKE_IDLE, TABLE1_HARDWARE
from ..noise.models import NoiseModel
from ..obs import stopwatch
from ..stab.dem import circuit_to_dem
from ..stab.sampler import DemSampler
from ..workloads.generators import PAPER_WORKLOADS, build_workload
from ..workloads.sync_estimate import (
    max_concurrent_cnots,
    program_ler_increase,
    syncs_per_cycle_table,
)
from .registry import FigureSpec, register

__all__ = ["PAPER_CYCLES"]

#: Logical cycle counts per workload reported in the paper (Fig. 3c),
#: recorded alongside our own estimates for side-by-side comparison.
PAPER_CYCLES = {
    "multiplier-75": 3255,
    "wstate-118": 2224,
    "shor-15": 118693,
    "qpe-80": 16225,
    "qft-80": 13246,
    "ising-98": 582,
}


def _pol(name: str, **kwargs) -> PolicySpec:
    return PolicySpec(name, tuple(sorted(kwargs.items())))


def _ler_sweep(name, params, *, distances, taus_ns, policies, hardware,
               ls_basis="Z", t_pp_ns=None, base_rounds=None) -> SweepSpec:
    """One fixed-shot SweepSpec: every point is one batch of ``shots`` shots.

    ``batch_shots = min_shots = max_shots = shots``, so a point's record
    depends only on (configuration, policy, seed, shots) and is shared by
    every spec and ``repro sweep`` run that asks for the same point.
    """
    shots = int(params["shots"])
    return SweepSpec(
        name=name,
        distances=tuple(int(d) for d in distances),
        taus_ns=tuple(float(t) for t in taus_ns),
        policies=tuple(policies),
        hardware=hardware,
        ls_basis=ls_basis,
        t_pp_ns=t_pp_ns,
        base_rounds=base_rounds,
        seed=int(params["seed"]),
        batch_shots=shots,
        min_shots=shots,
        max_shots=shots,
    )


def _points(report, label=lambda pt: pt.policy_name) -> dict:
    """Applicable points of one sweep report, in sweep order.

    Keyed ``(distance, tau_ns, label(point))`` -> ``PointOutcome``.  Points
    whose policy cannot realize the configuration (``not_applicable``
    records) are absent, as if never swept.
    """
    return {
        (o.point.config.distance, o.point.config.tau_ns, label(o.point)): o
        for o in report.outcomes
        if o.record.get("status") != "not_applicable"
    }


# ---------------------------------------------------------------------------
# Fig. 1: motivation (repetition-code idling, T-count headroom)
# ---------------------------------------------------------------------------


def _fig1c(params, _reports):
    """LER of the repetition code vs idle period before the final round.

    The two logical preparations are statistically identical under
    Pauli-frame noise; they are sampled with independent draws, as on
    hardware.
    """
    rng = np.random.default_rng(int(params["seed"]))
    shots = int(params["shots"])
    noise = NoiseModel(hardware=SHERBROOKE_IDLE, p=2e-2)
    rows = []
    for idle in params["idle_periods_ns"]:
        art = repetition_experiment(3, 2, noise, idle_before_last_round_ns=float(idle))
        dem = circuit_to_dem(art.circuit)
        decoder = UnionFindDecoder(build_matching_graph(dem, basis="Z"))
        sampler = DemSampler(dem)
        rates = {}
        for label in ("zero", "one"):
            det, flips = sampler.sample(shots, rng)
            pred = decoder.decode_batch(det, dedup=DECODE_DEFAULTS["dedup"])
            rates[label] = float((pred[:, :1] ^ flips).mean())
        rows.append({"idle_ns": float(idle), "ler_zero": rates["zero"], "ler_one": rates["one"]})
    return sorted(rows, key=lambda r: r["idle_ns"])


def _fig1c_checks(rows):
    # rows are sorted by idle_ns
    # shape: LER grows sharply with the idling period (paper: 1e-2 -> ~1e-1)
    assert rows[-1]["ler_zero"] > 1.5 * rows[0]["ler_zero"]
    # the two logical preparations behave alike
    for r in rows:
        assert abs(r["ler_zero"] - r["ler_one"]) < 0.05


register(FigureSpec(
    name="fig1c",
    category="sampled",
    anchor="Fig. 1c",
    title="Repetition-code LER vs idle period before the final round",
    builder=_fig1c,
    checks=_fig1c_checks,
    params={
        "idle_periods_ns": (0, 100, 200, 300, 400, 500, 600, 700, 800),
        "shots": 20_000,
        "seed": 2025,
    },
    columns=("idle_ns", "ler_zero", "ler_one"),
    vega={"mark": "line", "x": "idle_ns", "y": "ler_zero"},
))


def _fig1d(params, _reports):
    """Normalized T count enabled by the Active policy.

    Under the linear program-error model, a policy with per-operation LER
    ``e`` supports a circuit with ~1/e magic-state consumptions at constant
    failure probability, so the depth headroom is the LER ratio.
    """
    lers = {}
    for name in ("passive", "active"):
        config = SurgeryLerConfig(
            distance=int(params["distance"]),
            hardware=IBM,
            policy_name=name,
            tau_ns=float(params["tau_ns"]),
        )
        res = run_surgery_ler(config, make_policy(name), int(params["shots"]), int(params["seed"]))
        lers[name] = res.estimates[1].rate
    if lers["active"] <= 0:
        raise ValueError("active LER must be positive")
    return [{
        "ler_passive": lers["passive"],
        "ler_active": lers["active"],
        "norm_t_count": lers["passive"] / lers["active"],
    }]


def _fig1d_checks(rows):
    headroom = rows[0]["norm_t_count"]
    # Active must enable at least as deep a circuit; the paper's 2.4x needs
    # d=15 at 100M shots, so at laptop scale we assert the direction + bound
    assert headroom > 0.9
    assert headroom < 6.0


register(FigureSpec(
    name="fig1d",
    category="sampled",
    anchor="Fig. 1d",
    title="Normalized T count enabled by the Active policy",
    builder=_fig1d,
    checks=_fig1d_checks,
    params={"distance": 5, "tau_ns": 1000.0, "shots": 12_000, "seed": 2025},
    columns=("ler_passive", "ler_active", "norm_t_count"),
    vega={"mark": "bar", "x": "norm_t_count", "y": "ler_active"},
))


# ---------------------------------------------------------------------------
# Fig. 3c: synchronizations per logical cycle
# ---------------------------------------------------------------------------


def _fig3c(params, _reports):
    table = syncs_per_cycle_table(code_distance=int(params["code_distance"]))
    return [
        {
            "workload": est.name,
            "t_count": est.resources.t_count,
            "total_cycles": est.total_cycles,
            "syncs_per_cycle": est.syncs_per_cycle,
            "paper_cycles": PAPER_CYCLES.get(est.name),
        }
        for est in table
    ]


def _fig3c_checks(rows):
    rates = {r["workload"]: r["syncs_per_cycle"] for r in rows}
    # paper shape: every workload synchronizes, qft/qpe are the hungriest,
    # and the range spans roughly one to eleven per cycle
    assert all(r > 0 for r in rates.values())
    assert rates["qft-80"] > rates["ising-98"]
    assert rates["qpe-80"] > rates["wstate-118"]
    assert max(rates.values()) < 40


register(FigureSpec(
    name="fig3c",
    category="analytic",
    anchor="Fig. 3c",
    title="Minimum synchronizations per logical cycle for the six workloads",
    builder=_fig3c,
    checks=_fig3c_checks,
    params={"code_distance": 15},
    columns=("workload", "t_count", "total_cycles", "syncs_per_cycle", "paper_cycles"),
    vega={"mark": "bar", "x": "workload", "y": "syncs_per_cycle"},
))


# ---------------------------------------------------------------------------
# Fig. 4: case studies (cultivation slack, qLDPC slack)
# ---------------------------------------------------------------------------


def _fig4a(params, _reports):
    rng = np.random.default_rng(int(params["seed"]))
    rows = []
    for hw in (IBM, GOOGLE):
        for p in (5e-4, 1e-3):
            dist = cultivation_slack_distribution(hw, p, int(params["shots"]), rng=rng)
            rows.append({
                "hardware": hw.name,
                "p": p,
                "median_ns": dist.median_ns,
                "mean_ns": dist.mean_ns,
                "p95_ns": dist.percentile(95),
            })
    return sorted(rows, key=lambda r: (r["hardware"], r["p"]))


def _fig4a_checks(rows):
    # paper band: average-case slack ~500 ns, worst-case ~1000 ns
    for r in rows:
        assert 100 < r["mean_ns"] < 1500
        assert r["p95_ns"] < 2100


register(FigureSpec(
    name="fig4a",
    category="sampled",
    anchor="Fig. 4a",
    title="Cultivation slack distributions for IBM/Google at p=5e-4 and 1e-3",
    builder=_fig4a,
    checks=_fig4a_checks,
    params={"shots": 100_000, "seed": 2025},
    columns=("hardware", "p", "median_ns", "mean_ns", "p95_ns"),
    vega={"mark": "bar", "x": "hardware", "y": "mean_ns", "color": "p"},
))


def _fig4b(params, _reports):
    return [
        {"hardware": hw.name, "round": i, "slack_ns": float(s)}
        for hw in (GOOGLE, IBM)
        for i, s in enumerate(qldpc_surface_slack(int(params["rounds"]), hw))
    ]


def _fig4b_checks(rows):
    for name, hw in (("ibm", IBM), ("google", GOOGLE)):
        series_rows = sorted(
            (r for r in rows if r["hardware"] == name),
            key=lambda r: r["round"],
        )
        series = np.asarray([r["slack_ns"] for r in series_rows])
        # deterministic sawtooth bounded by the surface-code cycle
        assert series[0] == 0.0
        assert series.max() < hw.cycle_time_ns
        assert series[1] > 0  # one round already desynchronizes
        # the sawtooth must wrap at least once in 100 rounds
        assert (np.diff(series) < 0).any()


register(FigureSpec(
    name="fig4b",
    category="analytic",
    anchor="Fig. 4b",
    title="Slack vs QEC rounds when qLDPC memories run beside surface patches",
    builder=_fig4b,
    checks=_fig4b_checks,
    params={"rounds": 100},
    columns=("hardware", "round", "slack_ns"),
    vega={"mark": "line", "x": "round", "y": "slack_ns", "color": "hardware"},
))


# ---------------------------------------------------------------------------
# Fig. 6: DD fidelity, Passive vs Active windows
# ---------------------------------------------------------------------------


def _fig6(params, _reports):
    """Mean fidelity after a total idle tp: one window vs N windows."""
    return [
        {
            "windows": int(n),
            "tp_us": tp_us,
            "passive": BRISBANE_DD.sequence_fidelity(tp_us * 1000.0, 1),
            "active": BRISBANE_DD.sequence_fidelity(tp_us * 1000.0, n),
        }
        for n in sorted(params["n_values"])
        for tp_us in params["idle_periods_us"]
    ]


def _fig6_checks(rows):
    by_n = {}
    for r in rows:
        by_n.setdefault(r["windows"], []).append(r)
    for n, n_rows in by_n.items():
        for row in n_rows:
            # active (split windows) always at least matches passive
            assert row["active"] >= row["passive"] - 1e-12
        # fidelity decreases with total idle for both policies
        passives = [r["passive"] for r in n_rows]
        assert passives == sorted(passives, reverse=True)
    # splitting into more windows helps more (N=200 beats N=20)
    by_tp_20 = {r["tp_us"]: r["active"] for r in by_n[20]}
    by_tp_200 = {r["tp_us"]: r["active"] for r in by_n[200]}
    assert all(by_tp_200[tp] >= by_tp_20[tp] for tp in by_tp_20)
    # the mean-fidelity scale matches the hardware figure (~0.4-0.9)
    assert 0.35 < min(r["passive"] for r in rows) < 0.95


register(FigureSpec(
    name="fig6",
    category="analytic",
    anchor="Fig. 6",
    title="Mean DD fidelity after a total idle tp: one window vs N windows",
    builder=_fig6,
    checks=_fig6_checks,
    params={
        "idle_periods_us": (0.8, 1.6, 2.4, 3.2, 4.0, 5.6),
        "n_values": (20, 200),
    },
    columns=("windows", "tp_us", "passive", "active"),
    vega={"mark": "line", "x": "tp_us", "y": "passive", "color": "windows"},
))


# ---------------------------------------------------------------------------
# Fig. 7: Hamming-weight concentration at the merge round
# ---------------------------------------------------------------------------


def _fig7(params, _reports):
    """Per-round syndrome weights and LER-vs-weight under both policies."""
    rng = np.random.default_rng(int(params["seed"]))
    rows = []
    for policy in ("passive", "active"):
        config = SurgeryLerConfig(
            distance=int(params["distance"]),
            hardware=GOOGLE,
            policy_name=policy,
            tau_ns=float(params["tau_ns"]),
        )
        pipe = prepared_pipeline(config, make_policy(policy))
        det, flips = pipe.sampler.sample(int(params["shots"]), rng)
        pred = pipe.decoder("unionfind").decode_batch(
            pipe.mask_detectors(det), dedup=DECODE_DEFAULTS["dedup"]
        )
        failures = (pred[:, 1] ^ flips[:, 1]).astype(int)  # joint observable
        merge_round = int(pipe.plan.timeline_p.num_rounds)
        for rnd, indices in sorted(pipe.artifacts.detectors_by_round.items()):
            rows.append({
                "policy": policy,
                "kind": "weight_per_round",
                "round": int(rnd),
                "mean_weight": float(det[:, indices].sum(axis=1).mean()),
                "merge_round": merge_round,
            })
        weights = det.sum(axis=1)
        for w in np.unique(weights):
            mask = weights == w
            rows.append({
                "policy": policy,
                "kind": "ler_by_weight",
                "weight": int(w),
                "shots": int(mask.sum()),
                "failures": int(failures[mask].sum()),
                "merge_round": merge_round,
            })
    # stable: each policy keeps its row order
    return sorted(rows, key=lambda r: r["policy"])


def _fig7_checks(rows):
    weight_per_round = {"passive": {}, "active": {}}
    ler_rows = []
    merge = None
    for r in rows:
        if r["kind"] == "weight_per_round":
            weight_per_round[r["policy"]][r["round"]] = r["mean_weight"]
            if r["policy"] == "passive":
                merge = r["merge_round"]
        elif r["kind"] == "ler_by_weight" and r["policy"] == "passive":
            ler_rows.append((r["weight"], r["shots"], r["failures"]))

    # (b) Passive spikes at the merge round; Active stays much flatter there
    spike_passive = weight_per_round["passive"][merge]
    spike_active = weight_per_round["active"][merge]
    assert spike_passive > 1.2 * spike_active
    # Active pays a slightly higher weight in earlier rounds
    pre_rounds = [r for r in weight_per_round["passive"] if 0 < r < merge]
    pre_p = np.mean([weight_per_round["passive"][r] for r in pre_rounds])
    pre_a = np.mean([weight_per_round["active"][r] for r in pre_rounds])
    assert pre_a >= pre_p

    # (a) higher Hamming weight -> higher LER (compare low vs high tercile)
    table = np.array(ler_rows, dtype=float)
    weights, shots_per, fails = table[:, 0], table[:, 1], table[:, 2]
    cut = np.percentile(np.repeat(weights, shots_per.astype(int)), 66)
    low = fails[weights <= cut].sum() / max(shots_per[weights <= cut].sum(), 1)
    high = fails[weights > cut].sum() / max(shots_per[weights > cut].sum(), 1)
    assert high > low


register(FigureSpec(
    name="fig7",
    category="sampled",
    anchor="Fig. 7",
    title="Per-round syndrome weights and LER-vs-weight under both policies",
    builder=_fig7,
    checks=_fig7_checks,
    params={"distance": 5, "tau_ns": 1000.0, "shots": 12_000, "seed": 2025},
    columns=("policy", "kind", "round", "mean_weight", "merge_round",
             "weight", "shots", "failures"),
    vega={"mark": "line", "x": "round", "y": "mean_weight", "color": "policy"},
))


# ---------------------------------------------------------------------------
# Fig. 10 / Fig. 11: slack-resolution solutions (Eq. 1 / Hybrid heatmap)
# ---------------------------------------------------------------------------


def _fig10(params, _reports):
    """Extra rounds needed per Eq. (1) for each (T_P, T_P', tau)."""
    rows = []
    for t_p, t_pp, tau in params["configs"]:
        sol = extra_rounds_solution(t_p, t_pp, tau, max_rounds=100)
        rows.append({
            "t_p": t_p,
            "t_pp": t_pp,
            "tau": tau,
            "extra_rounds": None if sol is None else sol.extra_rounds_p,
        })
    return rows


#: the paper's Fig. 10 extra-round counts, one per default configuration
PAPER_VALUES = [None, 5, 11, 22, 26, 52, 34, 68]


def _fig10_checks(rows):
    assert [row["extra_rounds"] for row in rows] == PAPER_VALUES


register(FigureSpec(
    name="fig10",
    category="analytic",
    anchor="Fig. 10",
    title="Extra rounds needed per Eq. (1) for the Fig. 10 configurations",
    builder=_fig10,
    checks=_fig10_checks,
    params={"configs": (
        (1000, 1200, 500),
        (1000, 1200, 1000),
        (1000, 1150, 500),
        (1000, 1150, 1000),
        (1000, 1325, 500),
        (1000, 1325, 1000),
        (1000, 1725, 500),
        (1000, 1725, 1000),
    )},
    columns=("t_p", "t_pp", "tau", "extra_rounds"),
    vega={"mark": "bar", "x": "tau", "y": "extra_rounds", "color": "t_pp"},
))


def _fig11(params, _reports):
    """(eps, tau, T_P') -> Hybrid extra rounds z; None = no solution."""
    t_p = int(params["t_p"])
    rows = []
    for eps in sorted(params["eps_values"]):
        for tau in sorted(params["tau_values"]):
            for t_pp in sorted(params["t_pp_values"]):
                sol = None if t_pp == t_p else hybrid_solution(
                    t_p, t_pp, tau, eps, max_rounds=int(params["max_rounds"])
                )
                rows.append({
                    "eps": eps,
                    "tau": tau,
                    "t_pp": t_pp,
                    "extra_rounds": None if sol is None else sol.extra_rounds_p,
                })
    return rows


def _fig11_checks(rows):
    solvable = {}
    for r in rows:
        n_ok, n_total = solvable.get(r["eps"], (0, 0))
        solvable[r["eps"]] = (n_ok + (r["extra_rounds"] is not None), n_total + 1)

    # paper shape: a larger tolerance opens up many more configurations
    assert solvable[400][0] > 2 * solvable[100][0]
    # every recorded z obeys the z <= 5 bound used in the paper
    assert all(
        r["extra_rounds"] is None or 1 <= r["extra_rounds"] <= 5 for r in rows
    )
    # equal cycle times are never solvable by extra rounds
    assert all(
        r["extra_rounds"] is None for r in rows if r["t_pp"] == 1000
    )


register(FigureSpec(
    name="fig11",
    category="analytic",
    anchor="Fig. 11",
    title="(tau, T_P') -> Hybrid extra rounds; blank cells have no solution",
    builder=_fig11,
    checks=_fig11_checks,
    params={
        "eps_values": (100, 400),
        "t_p": 1000,
        "t_pp_values": tuple(range(1000, 1650, 25)),
        "tau_values": tuple(range(100, 1450, 50)),
        "max_rounds": 5,
    },
    columns=("eps", "tau", "t_pp", "extra_rounds"),
    vega={"mark": "rect", "x": "tau", "y": "t_pp", "color": "extra_rounds"},
))


# ---------------------------------------------------------------------------
# Fig. 14 / Fig. 15: headline LER sweeps
#
# The paper sweeps d = 3..15 at 100M shots on IBM- and Google-like systems
# for both lattice-surgery bases; reductions grow from ~1x at d=3 to up to
# 2.4x at d=15.  The defaults cover d in {3, 5} on both systems for the Z
# basis (the X basis is symmetric by construction and covered by the tests).
# ---------------------------------------------------------------------------


def _fig14(params, reports):
    """Reduction in LER (Passive/Active) per distance, slack, observable."""
    pts = _points(reports[0])
    rows = []
    for d in params["distances"]:
        for tau in params["taus_ns"]:
            passive = pts[(d, float(tau), "passive")].estimates
            active = pts[(d, float(tau), "active")].estimates
            for obs_index, obs_name in ((1, "joint"), (0, "single")):
                num = passive[obs_index]
                den = active[obs_index]
                rows.append({
                    "distance": d,
                    "tau_ns": float(tau),
                    "observable": obs_name,
                    "ler_passive": num.rate,
                    "ler_active": den.rate,
                    "reduction": (num.rate / den.rate) if den.rate else float("inf"),
                })
    return rows


def _fig14_sweeps(hardware, tag):
    def sweeps(params):
        return [_ler_sweep(
            f"fig14-{tag}", params,
            distances=params["distances"],
            taus_ns=params["taus_ns"],
            policies=(_pol("passive"), _pol("active")),
            hardware=hardware,
        )]
    return sweeps


def _fig14_ibm_checks(rows):
    # IBM LERs are ~4x lower than Google's at equal d: the d=5 contrast is
    # ~1.1-1.2x against a per-seed scatter of +-20% even at 100k shots.
    # Certifying the direction at bench scale would need ~300k+ shots, so
    # this twin records the data and asserts sanity bounds; the Google twin
    # carries the direction claim.
    # Non-finite reductions serialize as None in figure rows — drop them.
    reductions = [r["reduction"] for r in rows if r["reduction"] is not None]
    assert all(0.4 < v < 4.0 for v in reductions)
    assert np.mean(reductions) > 0.8


def _fig14_google_checks(rows):
    # shape: Active never loses badly, and wins on average; the contrast is
    # strongest at the largest distance (the paper's rising curves)
    reductions = [r["reduction"] for r in rows if r["reduction"] is not None]
    assert np.mean(reductions) > 1.0
    d_max = max(r["distance"] for r in rows)
    top = [
        r["reduction"]
        for r in rows
        if r["distance"] == d_max and r["reduction"] is not None
    ]
    assert np.mean(top) > 1.0
    # the larger slack shows the larger (or equal) benefit on the same d/obs
    big_tau = [
        r["reduction"]
        for r in rows
        if r["tau_ns"] == 1000.0 and r["reduction"] is not None
    ]
    assert np.mean(big_tau) >= 0.9 * np.mean(reductions)


register(FigureSpec(
    name="fig14_ibm",
    category="ler-sweep",
    anchor="Fig. 14",
    title="LER reduction (Passive/Active) per distance and slack, IBM timings",
    builder=_fig14,
    checks=_fig14_ibm_checks,
    params={"distances": (3, 5), "taus_ns": (500.0, 1000.0), "shots": 48_000, "seed": 2025},
    columns=("distance", "tau_ns", "observable", "ler_passive", "ler_active", "reduction"),
    sweeps=_fig14_sweeps(IBM, "ibm"),
    vega={"mark": "bar", "x": "distance", "y": "reduction", "color": "tau_ns"},
))

register(FigureSpec(
    name="fig14_google",
    category="ler-sweep",
    anchor="Fig. 14",
    title="LER reduction (Passive/Active) per distance and slack, Google timings",
    builder=_fig14,
    checks=_fig14_google_checks,
    params={"distances": (3, 5), "taus_ns": (500.0, 1000.0), "shots": 12_000, "seed": 2025},
    columns=("distance", "tau_ns", "observable", "ler_passive", "ler_active", "reduction"),
    sweeps=_fig14_sweeps(GOOGLE, "google"),
    vega={"mark": "bar", "x": "distance", "y": "reduction", "color": "tau_ns"},
))


def _fig15(params, reports):
    """LER of ideal vs Active vs Passive systems (Z-basis LS)."""
    return [
        {
            "distance": o.point.config.distance,
            "policy": o.point.policy_name,
            "ler_joint": o.estimates[1].rate,
            "ler_single": o.estimates[0].rate,
        }
        for o in _points(reports[0]).values()
    ]


def _fig15_checks(rows):
    by_key = {(r["distance"], r["policy"]): r["ler_joint"] for r in rows}
    distances = sorted({r["distance"] for r in rows})
    # at small d the three curves are within shot noise of each other (as in
    # the paper's Fig. 15 left edge); the ordering binds at the largest d
    d = distances[-1]
    assert by_key[(d, "ideal")] <= by_key[(d, "active")] * 1.2
    assert by_key[(d, "active")] <= by_key[(d, "passive")] * 1.15
    # active sits closer to ideal than passive does (the paper's headline)
    gaps_active = sum(by_key[(d, "active")] - by_key[(d, "ideal")] for d in distances)
    gaps_passive = sum(by_key[(d, "passive")] - by_key[(d, "ideal")] for d in distances)
    assert gaps_active < gaps_passive


register(FigureSpec(
    name="fig15",
    category="ler-sweep",
    anchor="Fig. 15",
    title="LER of ideal vs Active vs Passive systems (Z-basis LS)",
    builder=_fig15,
    checks=_fig15_checks,
    params={"distances": (3, 5), "tau_ns": 1000.0, "shots": 12_000, "seed": 2025},
    columns=("distance", "policy", "ler_joint", "ler_single"),
    sweeps=lambda params: [_ler_sweep(
        "fig15", params,
        distances=params["distances"],
        taus_ns=(params["tau_ns"],),
        policies=(_pol("ideal"), _pol("active"), _pol("passive")),
        hardware=GOOGLE,
    )],
    vega={"mark": "bar", "x": "distance", "y": "ler_joint", "color": "policy"},
))


# ---------------------------------------------------------------------------
# Fig. 16 / Fig. 17 / Fig. 18 / Fig. 19: policy studies
# ---------------------------------------------------------------------------


def _fig16(params, reports):
    """Relative program-LER increase per workload for Passive/Active."""
    by_key = {
        (policy, tau): o.estimates[1].rate
        for (_, tau, policy), o in _points(reports[0]).items()
    }
    ideal = max(by_key[("ideal", 500.0)], 1e-9)
    rows = []
    for est in syncs_per_cycle_table():
        spc = est.syncs_per_cycle
        rows.append({
            "workload": est.name,
            "syncs_per_cycle": spc,
            "passive_tau1000": program_ler_increase(spc, by_key[("passive", 1000.0)], ideal),
            "passive_tau500": program_ler_increase(spc, by_key[("passive", 500.0)], ideal),
            "active": program_ler_increase(spc, by_key[("active", 1000.0)], ideal),
        })
    return rows


def _fig16_checks(rows):
    for r in rows:
        # passive costs at least as much as active (up to per-point shot noise)
        assert r["passive_tau1000"] >= 0.85 * r["active"]
        assert r["passive_tau1000"] >= r["passive_tau500"] - 0.5
    # synchronization-hungry workloads suffer the most under Passive
    by_name = {r["workload"]: r for r in rows}
    assert by_name["qft-80"]["passive_tau1000"] > by_name["ising-98"]["passive_tau1000"]


register(FigureSpec(
    name="fig16",
    category="ler-sweep",
    anchor="Fig. 16",
    title="Relative program-LER increase per workload for Passive/Active",
    builder=_fig16,
    checks=_fig16_checks,
    params={"distance": 5, "shots": 12_000, "seed": 2025},
    columns=("workload", "syncs_per_cycle", "passive_tau1000", "passive_tau500", "active"),
    sweeps=lambda params: [_ler_sweep(
        "fig16", params,
        distances=(params["distance"],),
        taus_ns=(500.0, 1000.0),
        policies=(_pol("ideal"), _pol("active"), _pol("passive")),
        hardware=GOOGLE,
    )],
    vega={"mark": "bar", "x": "workload", "y": "passive_tau1000"},
))


def _fig17(params, reports):
    """Reduction of Active-intra vs Passive (can dip below 1)."""
    pts = _points(reports[0])
    rows = []
    for d in params["distances"]:
        for tau in params["taus_ns"]:
            passive = pts[(d, float(tau), "passive")].estimates[1]
            intra = pts[(d, float(tau), "active_intra")].estimates[1]
            rows.append({
                "distance": d,
                "tau_ns": float(tau),
                "reduction": (passive.rate / intra.rate) if intra.rate else float("inf"),
            })
    return rows


def _fig17_checks(rows):
    # the paper's point: Active-intra hovers near 1x (sometimes below),
    # never approaching Active's gains, because measure qubits also idle.
    # Non-finite reductions serialize as None in figure rows — drop them.
    reductions = [
        r["reduction"] for r in rows if r["reduction"] is not None
    ]
    assert 0.6 < np.mean(reductions) < 1.6


register(FigureSpec(
    name="fig17",
    category="ler-sweep",
    anchor="Fig. 17",
    title="Reduction of Active-intra vs Passive (can dip below 1)",
    builder=_fig17,
    checks=_fig17_checks,
    params={"distances": (3, 5), "taus_ns": (500.0, 1000.0), "shots": 12_000, "seed": 2025},
    columns=("distance", "tau_ns", "reduction"),
    sweeps=lambda params: [_ler_sweep(
        "fig17", params,
        distances=params["distances"],
        taus_ns=params["taus_ns"],
        policies=(_pol("passive"), _pol("active_intra")),
        hardware=IBM,
    )],
    vega={"mark": "bar", "x": "distance", "y": "reduction", "color": "tau_ns"},
))


def _fig18(params, reports):
    """(a) Active benefit when slack spreads over d+1+R rounds;
    (b) LER growth with rounds in the absence of any slack."""
    reduction_rows = []
    ler_rows = []
    for r, report in zip(params["extra_rounds"], reports):  # one sweep per R
        by_policy = {policy: o.estimates[1].rate for (_, _, policy), o in _points(report).items()}
        passive = by_policy["passive"]
        active = by_policy["active"]
        reduction_rows.append({
            "kind": "reduction_vs_rounds",
            "extra_rounds": r,
            "reduction": (passive / active) if active else float("inf"),
        })
        ler_rows.append({"kind": "ler_vs_rounds", "extra_rounds": r,
                         "ler_no_slack": by_policy["ideal"]})
    return reduction_rows + ler_rows


def _fig18_sweeps(params):
    distance = int(params["distance"])
    return [
        _ler_sweep(
            f"fig18-r{r}", params,
            distances=(distance,),
            taus_ns=(params["tau_ns"],),
            policies=(_pol("passive"), _pol("active"), _pol("ideal")),
            hardware=IBM,
            base_rounds=distance + 1 + int(r),
        )
        for r in params["extra_rounds"]
    ]


def _fig18_checks(rows):
    lers = {
        r["extra_rounds"]: r["ler_no_slack"]
        for r in rows
        if r["kind"] == "ler_vs_rounds"
    }
    reductions = [
        r["reduction"] for r in rows if r["kind"] == "reduction_vs_rounds"
    ]
    # (b) more rounds -> more exposure -> LER grows even without slack.
    # The paper measures the growth at d=11 with 100M shots; at laptop shot
    # counts the per-point CI is wide, so assert the series does not *shrink*
    # beyond noise rather than strict monotonicity.
    series = [lers[r] for r in sorted(lers)]
    assert series[-1] > 0.55 * series[0]
    assert max(series[1:]) >= series[0] * 0.9
    # (a) the Active advantage does not blow up with R (diminishing returns).
    # Non-finite reductions serialize as None in figure rows.
    assert all(x is not None and x > 0.5 for x in reductions)
    assert max(reductions) < 4.0


register(FigureSpec(
    name="fig18",
    category="ler-sweep",
    anchor="Fig. 18",
    title="Active benefit vs spread rounds; LER growth without slack",
    builder=_fig18,
    checks=_fig18_checks,
    params={"distance": 5, "extra_rounds": (0, 2, 4), "tau_ns": 1000.0,
            "shots": 12_000, "seed": 2025},
    columns=("kind", "extra_rounds", "reduction", "ler_no_slack"),
    sweeps=_fig18_sweeps,
    vega={"mark": "line", "x": "extra_rounds", "y": "reduction", "color": "kind"},
))


def _fig19_label(pt) -> str:
    """``hybrid@<eps_ns>`` for Hybrid points, the policy name otherwise."""
    if pt.policy_name == "hybrid":
        return f"hybrid@{dict(pt.policy_kwargs)['eps_ns']}"
    return pt.policy_name


def _fig19(params, reports):
    """LER reduction vs Passive for Active / Extra Rounds / Hybrid(eps).

    Paper configuration: T_P = 1000 ns, T_P' in {1050, 1100, 1150} ns (one to
    three extra CNOT layers), averaged over the cycle-time combinations.
    """
    accum: dict[tuple[str, float], list[float]] = {}
    for report in reports:  # one sweep per T_P'
        pts = _points(report, label=_fig19_label)
        for tau in params["taus_ns"]:
            results = {
                label: o.estimates[1].rate
                for (_, t, label), o in pts.items()
                if t == float(tau)
            }
            passive = results.get("passive")
            if not passive:
                continue
            for label, ler in results.items():
                if label == "passive" or ler <= 0:
                    continue
                accum.setdefault((label, tau), []).append(passive / ler)
    return [
        {"policy": label, "tau_ns": tau, "reduction": float(np.mean(vals))}
        for (label, tau), vals in sorted(accum.items())
    ]


def _fig19_sweeps(params):
    hardware = GOOGLE.with_cycle_time(1000.0)
    policies = [_pol("passive"), _pol("active"), _pol("extra_rounds")]
    policies += [
        _pol("hybrid", eps_ns=float(eps), max_rounds=100)
        for eps in params["eps_values_ns"]
    ]
    return [
        _ler_sweep(
            f"fig19-tpp{int(t_pp)}", params,
            distances=(params["distance"],),
            taus_ns=params["taus_ns"],
            policies=tuple(policies),
            hardware=hardware,
            t_pp_ns=float(t_pp),
        )
        for t_pp in params["t_pp_values_ns"]
    ]


def _fig19_checks(rows):
    by_key = {(r["policy"], r["tau_ns"]): r["reduction"] for r in rows}
    # every policy's reduction is a sane positive ratio
    assert all(0.02 < v < 10 for v in by_key.values())
    # the paper's headline for large tau: hybrid (generous eps) beats pure
    # extra rounds, which pays for its dozens of extra rounds
    if ("hybrid@400.0", 1000.0) in by_key and ("extra_rounds", 1000.0) in by_key:
        assert by_key[("hybrid@400.0", 1000.0)] > by_key[("extra_rounds", 1000.0)]
    # active must be competitive at small tau
    assert by_key[("active", 500.0)] > 0.75
    # a looser tolerance can only help the hybrid policy
    if ("hybrid@100.0", 1000.0) in by_key:
        assert by_key[("hybrid@400.0", 1000.0)] >= 0.7 * by_key[("hybrid@100.0", 1000.0)]


register(FigureSpec(
    name="fig19",
    category="ler-sweep",
    anchor="Fig. 19",
    title="LER reduction vs Passive for Active / Extra Rounds / Hybrid(eps)",
    builder=_fig19,
    checks=_fig19_checks,
    params={"distance": 5, "taus_ns": (500.0, 1000.0),
            "eps_values_ns": (100.0, 400.0), "shots": 12_000,
            "t_pp_values_ns": (1050.0, 1150.0), "seed": 2025},
    columns=("policy", "tau_ns", "reduction"),
    sweeps=_fig19_sweeps,
    vega={"mark": "bar", "x": "policy", "y": "reduction", "color": "tau_ns"},
))


# ---------------------------------------------------------------------------
# Fig. 20: synchronization-engine scaling
# ---------------------------------------------------------------------------


def _fig20(params, _reports):
    """CPU time of k-patch synchronization planning + workload CNOT widths."""
    rng = np.random.default_rng(int(params["seed"]))
    repeats = int(params["repeats"])
    rows = []
    for k in params["patch_counts"]:
        patches = [
            PatchState(
                patch_id=i,
                cycle_ns=int(rng.choice([1000, 1050, 1100, 1150])),
                elapsed_ns=int(rng.integers(0, 1000)),
            )
            for i in range(k)
        ]
        with stopwatch() as sw:
            for _ in range(repeats):
                plan_k_patch_sync(patches, policy="hybrid")
        rows.append({"kind": "timing", "patches": k, "cpu_time_s": sw.seconds / repeats})
    rows += [
        {"kind": "max_concurrent_cnots", "workload": name,
         "max_concurrent_cnots": max_concurrent_cnots(build_workload(name))}
        for name in sorted(PAPER_WORKLOADS)
    ]
    return rows


def _fig20_checks(rows):
    times = {
        r["patches"]: r["cpu_time_s"] for r in rows if r["kind"] == "timing"
    }
    # planning 50 patches stays comfortably sub-millisecond (paper: ~10 us
    # with 1024 threads; our single-threaded software model is the same order)
    assert times[50] < 1e-3
    # scaling is mild (linear in k, not quadratic blowup)
    assert times[50] < 100 * max(times[2], 1e-7)
    widths = {
        r["workload"]: r["max_concurrent_cnots"]
        for r in rows
        if r["kind"] == "max_concurrent_cnots"
    }
    # the paper caps its study at 50 concurrent synchronized operations
    assert max(widths.values()) >= 10


register(FigureSpec(
    name="fig20",
    category="engine",
    anchor="Fig. 20",
    title="CPU time of k-patch sync planning + workload CNOT widths",
    builder=_fig20,
    checks=_fig20_checks,
    params={"patch_counts": (2, 5, 10, 20, 30, 40, 50), "repeats": 200, "seed": 2025},
    columns=("kind", "patches", "cpu_time_s", "workload", "max_concurrent_cnots"),
    vega={"mark": "line", "x": "patches", "y": "cpu_time_s"},
    cacheable=False,  # rows are wall-clock timings
))


# ---------------------------------------------------------------------------
# Fig. 21 / Table 5: neutral-atom case study
# ---------------------------------------------------------------------------


def _fig21(params, reports):
    """Reduction vs Passive on a QuEra-like system (Active, Hybrid eps)."""
    pts = _points(reports[0])
    d = int(params["distance"])
    rows = []
    for tau_ms in params["taus_ms"]:
        tau = tau_ms * 1e6
        passive = pts[(d, tau, "passive")].estimates[1].rate
        for name in ("active", "hybrid"):
            o = pts.get((d, tau, name))
            if o is None:
                continue
            ler = o.estimates[1].rate
            rows.append({
                "tau_ms": tau_ms,
                "policy": name,
                "reduction": (passive / ler) if ler else float("inf"),
                "extra_rounds": o.record.get("plan_summary", {}).get("extra_rounds_p", 0),
            })
    return rows


def _fig21_sweeps(params):
    return [_ler_sweep(
        "fig21", params,
        distances=(params["distance"],),
        taus_ns=tuple(float(t) * 1e6 for t in params["taus_ms"]),
        policies=(_pol("passive"), _pol("active"),
                  _pol("hybrid", eps_ns=0.4e6, max_rounds=100)),
        hardware=QUERA.with_cycle_time(2.0e6),
        t_pp_ns=float(params["t_pp_ms"]) * 1e6,
    )]


def _fig21_checks(rows):
    active = [r["reduction"] for r in rows if r["policy"] == "active"]
    hybrid = [r["reduction"] for r in rows if r["policy"] == "hybrid"]
    # long coherence times make idling nearly free: Active ~ Passive (~1x)
    assert all(0.6 < v < 1.7 for v in active)
    # Hybrid runs extra multi-ms rounds and pays for them: never better than
    # Active on average (the paper shows reductions *below* 1)
    if hybrid:
        assert np.mean(hybrid) <= np.mean(active) * 1.15
        assert any(r["extra_rounds"] >= 1 for r in rows if r["policy"] == "hybrid")


register(FigureSpec(
    name="fig21",
    category="ler-sweep",
    anchor="Fig. 21",
    title="Reduction vs Passive on a QuEra-like system (Active, Hybrid)",
    builder=_fig21,
    checks=_fig21_checks,
    params={"distance": 3, "taus_ms": (0.2, 1.0, 2.0), "shots": 12_000,
            "t_pp_ms": 2.2, "seed": 2025},
    columns=("tau_ms", "policy", "reduction", "extra_rounds"),
    sweeps=_fig21_sweeps,
    vega={"mark": "line", "x": "tau_ms", "y": "reduction", "color": "policy"},
))


def _table5(params, _reports):
    """Hybrid extra rounds needed on neutral atoms (averaged over T_P')."""
    rows = []
    for eps_ms in params["eps_values_ms"]:
        for tau_ms in params["taus_ms"]:
            zs = []
            for t_pp_ms in params["t_pp_values_ms"]:
                sol = hybrid_solution(
                    int(float(params["t_p_ms"]) * 1e6),
                    int(t_pp_ms * 1e6),
                    int(tau_ms * 1e6),
                    int(eps_ms * 1e6),
                    max_rounds=1000,
                )
                if sol is not None:
                    zs.append(sol.extra_rounds_p)
            rows.append({
                "eps_ms": eps_ms,
                "tau_ms": tau_ms,
                "mean_extra_rounds": float(np.mean(zs)) if zs else None,
            })
    return rows


def _table5_checks(rows):
    # every configuration is solvable and needs multiple multi-ms rounds —
    # exactly why Hybrid loses on neutral atoms (paper: 3-12 extra rounds)
    assert all(r["mean_extra_rounds"] is not None for r in rows)
    assert all(1 <= r["mean_extra_rounds"] <= 20 for r in rows)
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r["eps_ms"], []).append(r["mean_extra_rounds"])
    # a looser tolerance never needs more rounds on average
    assert sum(by_eps[0.4]) <= sum(by_eps[0.1]) + 1e-9


register(FigureSpec(
    name="table5",
    category="analytic",
    anchor="Table 5",
    title="Hybrid extra rounds needed on neutral atoms (averaged over T_P')",
    builder=_table5,
    checks=_table5_checks,
    params={"taus_ms": (0.2, 0.6, 1.0, 1.6, 2.0), "eps_values_ms": (0.1, 0.4),
            "t_p_ms": 2.0, "t_pp_values_ms": (2.2, 2.4, 2.6)},
    columns=("eps_ms", "tau_ms", "mean_extra_rounds"),
    vega={"mark": "line", "x": "tau_ms", "y": "mean_extra_rounds", "color": "eps_ms"},
))


# ---------------------------------------------------------------------------
# Fig. 22: decoder speedup (LUT + MWPM latency model)
# ---------------------------------------------------------------------------


def _fig22(params, _reports):
    """Decode-latency speedup of Active over Passive with a LUT+MWPM stack.

    The fast level serves one lookup per syndrome round (LILLIPUT-style): a
    round whose detector weight is within the LUT's enumeration depth —
    ``floor((d+1)/2)``, the design point the paper's 3KB/3MB/30MB budgets
    correspond to — costs a 20 ns hit; heavier rounds invoke the matching
    decoder, whose latency is sampled from wall-clock measurements of our
    own MWPM implementation.  Passive synchronization concentrates the
    slack's errors into the merge round (the Fig. 7 spike), which is exactly
    the round that then overflows the LUT.
    """
    rng = np.random.default_rng(int(params["seed"]))
    shots = int(params["shots"])
    hit_latency_ns = 20.0
    rows = []
    for d in params["distances"]:
        threshold = (d + 1) // 2
        stats = {}
        miss_latency_ns = None  # one shared dataset for both policies
        for policy_name in ("passive", "active"):
            config = SurgeryLerConfig(
                distance=d, hardware=GOOGLE, policy_name=policy_name,
                tau_ns=float(params["tau_ns"]),
            )
            pipe = prepared_pipeline(config, make_policy(policy_name))
            det, _ = pipe.sampler.sample(shots, rng)
            if miss_latency_ns is None:
                samples = measure_decoder_latencies(MWPMDecoder(pipe.graph), det, max_samples=200)
                miss_latency_ns = float(np.mean(samples))
            hits = 0
            requests = 0
            for _, indices in sorted(pipe.artifacts.detectors_by_round.items()):
                weights = det[:, indices].sum(axis=1)
                hits += int((weights <= threshold).sum())
                requests += weights.size
            misses = requests - hits
            stats[policy_name] = {
                "hit_rate": hits / requests,
                "mean_latency_ns": (hits * hit_latency_ns + misses * miss_latency_ns) / shots,
            }
        rows.append({
            "distance": d,
            "hit_rate_passive": stats["passive"]["hit_rate"],
            "hit_rate_active": stats["active"]["hit_rate"],
            "speedup": (
                stats["passive"]["mean_latency_ns"] / stats["active"]["mean_latency_ns"]
                if stats["active"]["mean_latency_ns"]
                else float("inf")
            ),
        })
    return rows


def _fig22_checks(rows):
    for r in rows:
        # Active's flatter per-round syndromes hit the LUT at least as often
        assert r["hit_rate_active"] >= r["hit_rate_passive"] - 0.005
        if r["distance"] <= 3:
            # paper's d=3 regime: the LUT captures almost everything for both
            # policies, so the speedup hovers near parity (their 1.03x)
            assert 0.9 < r["speedup"] < 2.0
        else:
            # at d>=5 Passive's merge-round spike overflows the LUT more often,
            # so Active decodes strictly faster (paper: 2.28x at d=5; the spike
            # amplitude — hence the gap — grows with patch size)
            assert r["speedup"] > 1.0


register(FigureSpec(
    name="fig22",
    category="sampled",
    anchor="Fig. 22",
    title="Decode-latency speedup of Active over Passive (LUT + MWPM stack)",
    builder=_fig22,
    checks=_fig22_checks,
    params={"distances": (3, 5), "tau_ns": 1000.0, "shots": 4_000, "seed": 2025},
    columns=("distance", "hit_rate_passive", "hit_rate_active", "speedup"),
    vega={"mark": "bar", "x": "distance", "y": "speedup"},
    cacheable=False,  # speedup uses wall-clock MWPM latencies
))


# ---------------------------------------------------------------------------
# Tables 1 / 2 / 4: error counts and worked configurations
# ---------------------------------------------------------------------------


def _table1(params, reports):
    """Logical-error counts, Passive vs Active (Table 1 at reduced scale)."""
    counts = {
        (policy, d, tau): o.estimates[1].successes
        for (d, tau, policy), o in _points(reports[0]).items()
    }
    rows = []
    for tau in params["slacks_ns"]:
        for d in params["distances"]:
            passive = counts[("passive", d, float(tau))]
            active = counts[("active", d, float(tau))]
            rows.append({
                "distance": d,
                "slack_ns": float(tau),
                "errors_passive": passive,
                "errors_active": active,
                "pct_reduction": 100.0 * (passive - active) / passive if passive else 0.0,
            })
    return rows


def _table1_checks(rows):
    # paper shape: Active reduces the error count in aggregate, and errors
    # drop with distance for both policies
    total_p = sum(r["errors_passive"] for r in rows)
    total_a = sum(r["errors_active"] for r in rows)
    assert total_a < total_p
    for slack in (500.0, 1000.0):
        slack_rows = sorted(
            (r for r in rows if r["slack_ns"] == slack), key=lambda r: r["distance"]
        )
        counts = [r["errors_passive"] for r in slack_rows]
        assert counts == sorted(counts, reverse=True)


register(FigureSpec(
    name="table1",
    category="ler-sweep",
    anchor="Table 1",
    title="Logical-error counts, Passive vs Active (reduced scale)",
    builder=_table1,
    checks=_table1_checks,
    params={"distances": (3, 5), "slacks_ns": (500.0, 1000.0),
            "shots": 12_000, "seed": 2025},
    columns=("distance", "slack_ns", "errors_passive", "errors_active", "pct_reduction"),
    sweeps=lambda params: [_ler_sweep(
        "table1", params,
        distances=params["distances"],
        taus_ns=params["slacks_ns"],
        policies=(_pol("passive"), _pol("active")),
        hardware=TABLE1_HARDWARE,
    )],
    vega={"mark": "bar", "x": "distance", "y": "pct_reduction", "color": "slack_ns"},
))


def _table2(params, reports):
    """Idling period / extra rounds / LER for the Table 2 configuration.

    T_P = 1000 ns, T_P' = 1325 ns, tau = 1000 ns, eps = 400 ns (the paper
    uses d = 7 and 20M shots; distance and shots scale down here).
    """
    pts = _points(reports[0])
    rows = []
    for name in ("active", "extra_rounds", "hybrid"):
        o = pts[(int(params["distance"]), 1000.0, name)]
        plan = o.record.get("plan_summary", {})
        rows.append({
            "policy": name,
            "idle_ns": plan["idle_ns"],
            "extra_rounds": plan["extra_rounds_p"],
            "ler": o.estimates[1].rate,
        })
    return rows


def _table2_checks(rows):
    by_policy = {r["policy"]: r for r in rows}
    # the schedule arithmetic must match the paper's Table 2 exactly
    assert by_policy["active"]["idle_ns"] == 1000.0
    assert by_policy["active"]["extra_rounds"] == 0
    assert by_policy["extra_rounds"]["idle_ns"] == 0.0
    assert by_policy["extra_rounds"]["extra_rounds"] == 52
    assert by_policy["hybrid"]["idle_ns"] == 300.0
    assert by_policy["hybrid"]["extra_rounds"] == 4
    # LER shape: the pure extra-rounds policy pays dearly for its 52 rounds
    # (paper: 4.2x worse than Active); Hybrid stays in Active's band.  The
    # hybrid<active separation itself (paper: 1.47x at d=7, 20M shots) is not
    # resolvable at laptop shots/d=5.
    assert by_policy["extra_rounds"]["ler"] > 2.0 * by_policy["active"]["ler"]
    assert by_policy["hybrid"]["ler"] < 0.7 * by_policy["extra_rounds"]["ler"]
    assert by_policy["hybrid"]["ler"] <= by_policy["active"]["ler"] * 1.6


register(FigureSpec(
    name="table2",
    category="ler-sweep",
    anchor="Table 2",
    title="Idling period / extra rounds / LER for the Table 2 configuration",
    builder=_table2,
    checks=_table2_checks,
    params={"shots": 12_000, "distance": 5, "seed": 2025},
    columns=("policy", "idle_ns", "extra_rounds", "ler"),
    sweeps=lambda params: [_ler_sweep(
        "table2", params,
        distances=(params["distance"],),
        taus_ns=(1000.0,),
        policies=(_pol("active"), _pol("extra_rounds", max_rounds=100),
                  _pol("hybrid", eps_ns=400.0, max_rounds=100)),
        hardware=GOOGLE.with_cycle_time(1000.0),
        t_pp_ns=1325.0,
    )],
    vega={"mark": "bar", "x": "policy", "y": "ler"},
))


def _table4(params, reports):
    """Mean LER reduction of Active / Extra Rounds / Hybrid vs Passive.

    Uses the paper's Fig. 19 / Table 4 cycle configuration: T_P = 1000 ns and
    T_P' representing 1/2/3 extra CNOT layers (1050/1100/1150 ns), on
    Google-like coherence times.
    """
    rows = []
    for d in params["distances"]:
        reductions: dict[str, list[float]] = {"active": [], "extra_rounds": [], "hybrid": []}
        for report in reports:  # one sweep per T_P'
            by_policy = {
                policy: o.estimates[1].rate
                for (dd, _, policy), o in _points(report).items()
                if dd == d
            }
            passive = by_policy["passive"]
            for name in reductions:
                if name in by_policy and by_policy[name] > 0:
                    reductions[name].append(passive / by_policy[name])
        rows.append({
            "distance": d,
            **{name: float(np.mean(v)) if v else None for name, v in reductions.items()},
        })
    return rows


def _table4_sweeps(params):
    hardware = GOOGLE.with_cycle_time(1000.0)
    return [
        _ler_sweep(
            f"table4-tpp{int(t_pp)}", params,
            distances=params["distances"],
            taus_ns=(params["tau_ns"],),
            policies=(_pol("passive"), _pol("active"),
                      _pol("extra_rounds", max_rounds=100),
                      _pol("hybrid", eps_ns=float(params["eps_ns"]), max_rounds=100)),
            hardware=hardware,
            t_pp_ns=float(t_pp),
        )
        for t_pp in params["t_pp_values_ns"]
    ]


def _table4_checks(rows):
    for r in rows:
        # Active and Hybrid must at least be competitive with Passive
        assert r["active"] > 0.8
        assert r["hybrid"] > 0.8
        assert r["hybrid"] >= 0.7 * r["active"]
        # paper ordering at tau=1000 holds for the weakest policy: pure extra
        # rounds trails both (Table 4: 1.63 < 2.14 < 3.4 at d=15; at small d
        # the tens of extra rounds cost even more, so the gap widens)
        assert r["extra_rounds"] < r["hybrid"]
        assert r["extra_rounds"] < r["active"]


register(FigureSpec(
    name="table4",
    category="ler-sweep",
    anchor="Table 4",
    title="Mean LER reduction of Active / Extra Rounds / Hybrid vs Passive",
    builder=_table4,
    checks=_table4_checks,
    params={"distances": (5,), "tau_ns": 1000.0, "shots": 12_000,
            "t_pp_values_ns": (1050.0, 1150.0), "eps_ns": 400.0, "seed": 2025},
    columns=("distance", "active", "extra_rounds", "hybrid"),
    sweeps=_table4_sweeps,
    vega={"mark": "bar", "x": "distance", "y": "hybrid"},
))
