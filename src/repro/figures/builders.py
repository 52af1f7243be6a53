"""The registered figure specs: every paper figure/table, one ``FigureSpec``.

Each spec's ``builder`` wraps the corresponding data-generation function in
:mod:`repro.experiments.figures` with the *exact* call shape the historical
``benchmarks/test_*`` harness used (raw integer seeds, same defaults), then
flattens the result into uniform row dicts — so the migrated benchmarks
keep their paper-value assertions bit-identically.  Sweep-backed specs also
declare their data needs as ``SweepSpec``s (``sweeps=``) whose point keys
match the ``sweep_policies`` -> ``ensure_point`` read-through exactly: one
``run_sweep`` pre-warm and the builder decodes nothing.

Names passed to ``FigureSpec(name=...)`` must stay string literals — the
``contract-figure-registry`` lint rule reads them statically to enforce the
registry <-> benchmarks pairing.
"""

from __future__ import annotations

from ..core.policies import make_policy
from ..experiments import figures as figs
from ..experiments.ler import SurgeryLerConfig, run_surgery_ler
from ..experiments.sweeps import PolicySpec, SweepSpec
from ..noise.hardware import GOOGLE, IBM, QUERA
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
    """One fixed-shot SweepSpec whose point keys match ``sweep_policies``.

    ``batch_shots = min_shots = max_shots = shots`` reproduces the
    ``ensure_point`` defaults the figure functions use, so pre-warming with
    ``run_sweep`` populates exactly the records the builder will read.
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


# ---------------------------------------------------------------------------
# Fig. 1: motivation (repetition-code idling, T-count headroom)
# ---------------------------------------------------------------------------


def _fig1c(params):
    data = figs.fig1c_repetition_idle(
        idle_periods_ns=tuple(params["idle_periods_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )
    return [
        {"idle_ns": idle, "ler_zero": rates["zero"], "ler_one": rates["one"]}
        for idle, rates in sorted(data.items())
    ]


register(FigureSpec(
    name="fig1c",
    category="sampled",
    anchor="Fig. 1c",
    title="Repetition-code LER vs idle period before the final round",
    builder=_fig1c,
    params={
        "idle_periods_ns": (0, 100, 200, 300, 400, 500, 600, 700, 800),
        "shots": 20_000,
        "seed": 2025,
    },
    columns=("idle_ns", "ler_zero", "ler_one"),
    vega={"mark": "line", "x": "idle_ns", "y": "ler_zero"},
))


def _fig1d(params):
    distance = int(params["distance"])
    shots = int(params["shots"])
    seed = int(params["seed"])
    lers = {}
    for name in ("passive", "active"):
        config = SurgeryLerConfig(
            distance=distance,
            hardware=IBM,
            policy_name=name,
            tau_ns=float(params["tau_ns"]),
        )
        res = run_surgery_ler(config, make_policy(name), shots, seed)
        lers[name] = res.estimates[1].rate
    return [{
        "ler_passive": lers["passive"],
        "ler_active": lers["active"],
        "norm_t_count": figs.fig1d_tcount_headroom(lers["passive"], lers["active"]),
    }]


register(FigureSpec(
    name="fig1d",
    category="sampled",
    anchor="Fig. 1d",
    title="Normalized T count enabled by the Active policy",
    builder=_fig1d,
    params={"distance": 5, "tau_ns": 1000.0, "shots": 12_000, "seed": 2025},
    columns=("ler_passive", "ler_active", "norm_t_count"),
    vega={"mark": "bar", "x": "norm_t_count", "y": "ler_active"},
))


# ---------------------------------------------------------------------------
# Fig. 3c: synchronizations per logical cycle
# ---------------------------------------------------------------------------


def _fig3c(params):
    table = figs.fig3c_syncs_per_cycle(code_distance=int(params["code_distance"]))
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


register(FigureSpec(
    name="fig3c",
    category="analytic",
    anchor="Fig. 3c",
    title="Minimum synchronizations per logical cycle for the six workloads",
    builder=_fig3c,
    params={"code_distance": 15},
    columns=("workload", "t_count", "total_cycles", "syncs_per_cycle", "paper_cycles"),
    vega={"mark": "bar", "x": "workload", "y": "syncs_per_cycle"},
))


# ---------------------------------------------------------------------------
# Fig. 4: case studies (cultivation slack, qLDPC slack)
# ---------------------------------------------------------------------------


def _fig4a(params):
    data = figs.fig4a_cultivation_slack(
        shots=int(params["shots"]), rng=int(params["seed"])
    )
    return [
        {
            "hardware": hw,
            "p": p,
            "median_ns": dist.median_ns,
            "mean_ns": dist.mean_ns,
            "p95_ns": dist.percentile(95),
        }
        for (hw, p), dist in sorted(data.items())
    ]


register(FigureSpec(
    name="fig4a",
    category="sampled",
    anchor="Fig. 4a",
    title="Cultivation slack distributions for IBM/Google at p=5e-4 and 1e-3",
    builder=_fig4a,
    params={"shots": 100_000, "seed": 2025},
    columns=("hardware", "p", "median_ns", "mean_ns", "p95_ns"),
    vega={"mark": "bar", "x": "hardware", "y": "mean_ns", "color": "p"},
))


def _fig4b(params):
    data = figs.fig4b_qldpc_slack(rounds=int(params["rounds"]))
    return [
        {"hardware": name, "round": i, "slack_ns": float(s)}
        for name, series in sorted(data.items())
        for i, s in enumerate(series)
    ]


register(FigureSpec(
    name="fig4b",
    category="analytic",
    anchor="Fig. 4b",
    title="Slack vs QEC rounds when qLDPC memories run beside surface patches",
    builder=_fig4b,
    params={"rounds": 100},
    columns=("hardware", "round", "slack_ns"),
    vega={"mark": "line", "x": "round", "y": "slack_ns", "color": "hardware"},
))


# ---------------------------------------------------------------------------
# Fig. 6: DD fidelity, Passive vs Active windows
# ---------------------------------------------------------------------------


def _fig6(params):
    data = figs.fig6_dd_fidelity(
        idle_periods_us=tuple(params["idle_periods_us"]),
        n_values=tuple(params["n_values"]),
    )
    return [
        {
            "windows": int(n),
            "tp_us": row["tp_us"],
            "passive": row["passive"],
            "active": row["active"],
        }
        for n, rows in sorted(data.items())
        for row in rows
    ]


register(FigureSpec(
    name="fig6",
    category="analytic",
    anchor="Fig. 6",
    title="Mean DD fidelity after a total idle tp: one window vs N windows",
    builder=_fig6,
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


def _fig7(params):
    data = figs.fig7_hamming_weight(
        distance=int(params["distance"]),
        tau_ns=float(params["tau_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )
    rows = []
    for policy, d in sorted(data.items()):
        merge_round = int(d.merge_round_label)
        for rnd, weight in sorted(d.weight_per_round.items()):
            rows.append({
                "policy": policy,
                "kind": "weight_per_round",
                "round": int(rnd),
                "mean_weight": float(weight),
                "merge_round": merge_round,
            })
        for weight, shots, fails in d.ler_by_weight:
            rows.append({
                "policy": policy,
                "kind": "ler_by_weight",
                "weight": int(weight),
                "shots": int(shots),
                "failures": int(fails),
                "merge_round": merge_round,
            })
    return rows


register(FigureSpec(
    name="fig7",
    category="sampled",
    anchor="Fig. 7",
    title="Per-round syndrome weights and LER-vs-weight under both policies",
    builder=_fig7,
    params={"distance": 5, "tau_ns": 1000.0, "shots": 12_000, "seed": 2025},
    columns=("policy", "kind", "round", "mean_weight", "merge_round",
             "weight", "shots", "failures"),
    vega={"mark": "line", "x": "round", "y": "mean_weight", "color": "policy"},
))


# ---------------------------------------------------------------------------
# Fig. 10 / Fig. 11: slack-resolution solutions (Eq. 1 / Hybrid heatmap)
# ---------------------------------------------------------------------------


def _fig10(params):
    configs = params["configs"]
    return figs.fig10_extra_rounds_configs(
        None if configs is None else [tuple(c) for c in configs]
    )


register(FigureSpec(
    name="fig10",
    category="analytic",
    anchor="Fig. 10",
    title="Extra rounds needed per Eq. (1) for the Fig. 10 configurations",
    builder=_fig10,
    params={"configs": None},
    columns=("t_p", "t_pp", "tau", "extra_rounds"),
    vega={"mark": "bar", "x": "tau", "y": "extra_rounds", "color": "t_pp"},
))


def _fig11(params):
    grids = figs.fig11_hybrid_heatmap(
        eps_values=tuple(params["eps_values"]),
        t_p=int(params["t_p"]),
        t_pp_values=tuple(params["t_pp_values"]),
        tau_values=tuple(params["tau_values"]),
        max_rounds=int(params["max_rounds"]),
    )
    return [
        {"eps": eps, "tau": tau, "t_pp": t_pp, "extra_rounds": z}
        for eps, grid in sorted(grids.items())
        for (tau, t_pp), z in sorted(grid.items())
    ]


register(FigureSpec(
    name="fig11",
    category="analytic",
    anchor="Fig. 11",
    title="(tau, T_P') -> Hybrid extra rounds; blank cells have no solution",
    builder=_fig11,
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
# ---------------------------------------------------------------------------


def _fig14_builder(hardware):
    def build(params):
        return figs.fig14_active_vs_passive(
            distances=tuple(params["distances"]),
            taus_ns=tuple(params["taus_ns"]),
            shots=int(params["shots"]),
            hardware=hardware,
            rng=int(params["seed"]),
        )
    return build


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


_FIG14_PARAMS = {
    "distances": (3, 5, 7),
    "taus_ns": (500.0, 1000.0),
    "shots": 20_000,
    "seed": 2025,
}

register(FigureSpec(
    name="fig14_ibm",
    category="ler-sweep",
    anchor="Fig. 14",
    title="LER reduction (Passive/Active) per distance and slack, IBM timings",
    builder=_fig14_builder(IBM),
    params=dict(_FIG14_PARAMS),
    columns=("distance", "tau_ns", "observable", "ler_passive", "ler_active", "reduction"),
    sweeps=_fig14_sweeps(IBM, "ibm"),
    vega={"mark": "bar", "x": "distance", "y": "reduction", "color": "tau_ns"},
))

register(FigureSpec(
    name="fig14_google",
    category="ler-sweep",
    anchor="Fig. 14",
    title="LER reduction (Passive/Active) per distance and slack, Google timings",
    builder=_fig14_builder(GOOGLE),
    params=dict(_FIG14_PARAMS),
    columns=("distance", "tau_ns", "observable", "ler_passive", "ler_active", "reduction"),
    sweeps=_fig14_sweeps(GOOGLE, "google"),
    vega={"mark": "bar", "x": "distance", "y": "reduction", "color": "tau_ns"},
))


def _fig15(params):
    return figs.fig15_cost_of_synchronization(
        distances=tuple(params["distances"]),
        tau_ns=float(params["tau_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )


register(FigureSpec(
    name="fig15",
    category="ler-sweep",
    anchor="Fig. 15",
    title="LER of ideal vs Active vs Passive systems (Z-basis LS)",
    builder=_fig15,
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


def _fig16(params):
    return figs.fig16_workload_ler_increase(
        distance=int(params["distance"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )


register(FigureSpec(
    name="fig16",
    category="ler-sweep",
    anchor="Fig. 16",
    title="Relative program-LER increase per workload for Passive/Active",
    builder=_fig16,
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


def _fig17(params):
    return figs.fig17_active_intra(
        distances=tuple(params["distances"]),
        taus_ns=tuple(params["taus_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )


register(FigureSpec(
    name="fig17",
    category="ler-sweep",
    anchor="Fig. 17",
    title="Reduction of Active-intra vs Passive (can dip below 1)",
    builder=_fig17,
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


def _fig18(params):
    data = figs.fig18_additional_rounds(
        distance=int(params["distance"]),
        extra_rounds=tuple(params["extra_rounds"]),
        tau_ns=float(params["tau_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )
    rows = [
        {"kind": "reduction_vs_rounds", "extra_rounds": r["extra_rounds"],
         "reduction": r["reduction"]}
        for r in data["reduction_vs_rounds"]
    ]
    rows += [
        {"kind": "ler_vs_rounds", "extra_rounds": r["extra_rounds"],
         "ler_no_slack": r["ler_no_slack"]}
        for r in data["ler_vs_rounds"]
    ]
    return rows


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


register(FigureSpec(
    name="fig18",
    category="ler-sweep",
    anchor="Fig. 18",
    title="Active benefit vs spread rounds; LER growth without slack",
    builder=_fig18,
    params={"distance": 5, "extra_rounds": (0, 2, 4), "tau_ns": 1000.0,
            "shots": 12_000, "seed": 2025},
    columns=("kind", "extra_rounds", "reduction", "ler_no_slack"),
    sweeps=_fig18_sweeps,
    vega={"mark": "line", "x": "extra_rounds", "y": "reduction", "color": "kind"},
))


def _fig19(params):
    return figs.fig19_policy_comparison(
        distance=int(params["distance"]),
        taus_ns=tuple(params["taus_ns"]),
        eps_values_ns=tuple(params["eps_values_ns"]),
        shots=int(params["shots"]),
        t_pp_values_ns=tuple(params["t_pp_values_ns"]),
        rng=int(params["seed"]),
    )


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


register(FigureSpec(
    name="fig19",
    category="ler-sweep",
    anchor="Fig. 19",
    title="LER reduction vs Passive for Active / Extra Rounds / Hybrid(eps)",
    builder=_fig19,
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


def _fig20(params):
    data = figs.fig20_engine_scaling(
        patch_counts=tuple(params["patch_counts"]),
        repeats=int(params["repeats"]),
        rng=int(params["seed"]),
    )
    rows = [
        {"kind": "timing", "patches": r["patches"], "cpu_time_s": r["cpu_time_s"]}
        for r in data["timing"]
    ]
    rows += [
        {"kind": "max_concurrent_cnots", "workload": r["workload"],
         "max_concurrent_cnots": r["max_concurrent_cnots"]}
        for r in data["max_concurrent_cnots"]
    ]
    return rows


register(FigureSpec(
    name="fig20",
    category="engine",
    anchor="Fig. 20",
    title="CPU time of k-patch sync planning + workload CNOT widths",
    builder=_fig20,
    params={"patch_counts": (2, 5, 10, 20, 30, 40, 50), "repeats": 200, "seed": 2025},
    columns=("kind", "patches", "cpu_time_s", "workload", "max_concurrent_cnots"),
    vega={"mark": "line", "x": "patches", "y": "cpu_time_s"},
    cacheable=False,  # rows are wall-clock timings
))


# ---------------------------------------------------------------------------
# Fig. 21 / Table 5: neutral-atom case study
# ---------------------------------------------------------------------------


def _fig21(params):
    return figs.fig21_neutral_atom(
        distance=int(params["distance"]),
        taus_ms=tuple(params["taus_ms"]),
        shots=int(params["shots"]),
        t_pp_ms=float(params["t_pp_ms"]),
        rng=int(params["seed"]),
    )


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


register(FigureSpec(
    name="fig21",
    category="ler-sweep",
    anchor="Fig. 21",
    title="Reduction vs Passive on a QuEra-like system (Active, Hybrid)",
    builder=_fig21,
    params={"distance": 3, "taus_ms": (0.2, 1.0, 2.0), "shots": 12_000,
            "t_pp_ms": 2.2, "seed": 2025},
    columns=("tau_ms", "policy", "reduction", "extra_rounds"),
    sweeps=_fig21_sweeps,
    vega={"mark": "line", "x": "tau_ms", "y": "reduction", "color": "policy"},
))


def _table5(params):
    return figs.table5_neutral_atom_rounds(
        taus_ms=tuple(params["taus_ms"]),
        eps_values_ms=tuple(params["eps_values_ms"]),
        t_p_ms=float(params["t_p_ms"]),
        t_pp_values_ms=tuple(params["t_pp_values_ms"]),
    )


register(FigureSpec(
    name="table5",
    category="analytic",
    anchor="Table 5",
    title="Hybrid extra rounds needed on neutral atoms (averaged over T_P')",
    builder=_table5,
    params={"taus_ms": (0.2, 0.6, 1.0, 1.6, 2.0), "eps_values_ms": (0.1, 0.4),
            "t_p_ms": 2.0, "t_pp_values_ms": (2.2, 2.4, 2.6)},
    columns=("eps_ms", "tau_ms", "mean_extra_rounds"),
    vega={"mark": "line", "x": "tau_ms", "y": "mean_extra_rounds", "color": "eps_ms"},
))


# ---------------------------------------------------------------------------
# Fig. 22: decoder speedup (LUT + MWPM latency model)
# ---------------------------------------------------------------------------


def _fig22(params):
    return figs.fig22_decoder_speedup(
        distances=tuple(params["distances"]),
        tau_ns=float(params["tau_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )


register(FigureSpec(
    name="fig22",
    category="sampled",
    anchor="Fig. 22",
    title="Decode-latency speedup of Active over Passive (LUT + MWPM stack)",
    builder=_fig22,
    params={"distances": (3, 5), "tau_ns": 1000.0, "shots": 4_000, "seed": 2025},
    columns=("distance", "hit_rate_passive", "hit_rate_active", "speedup"),
    vega={"mark": "bar", "x": "distance", "y": "speedup"},
    cacheable=False,  # speedup uses wall-clock MWPM latencies
))


# ---------------------------------------------------------------------------
# Tables 1 / 2 / 4: error counts and worked configurations
# ---------------------------------------------------------------------------


def _table1(params):
    return figs.table1_error_counts(
        distances=tuple(params["distances"]),
        slacks_ns=tuple(params["slacks_ns"]),
        shots=int(params["shots"]),
        rng=int(params["seed"]),
    )


register(FigureSpec(
    name="table1",
    category="ler-sweep",
    anchor="Table 1",
    title="Logical-error counts, Passive vs Active (reduced scale)",
    builder=_table1,
    params={"distances": (3, 5), "slacks_ns": (500.0, 1000.0),
            "shots": 12_000, "seed": 2025},
    columns=("distance", "slack_ns", "errors_passive", "errors_active", "pct_reduction"),
    sweeps=lambda params: [_ler_sweep(
        "table1", params,
        distances=params["distances"],
        taus_ns=params["slacks_ns"],
        policies=(_pol("passive"), _pol("active")),
        hardware=figs.TABLE1_HARDWARE,
    )],
    vega={"mark": "bar", "x": "distance", "y": "pct_reduction", "color": "slack_ns"},
))


def _table2(params):
    return figs.table2_policy_configuration(
        shots=int(params["shots"]),
        distance=int(params["distance"]),
        rng=int(params["seed"]),
    )


register(FigureSpec(
    name="table2",
    category="ler-sweep",
    anchor="Table 2",
    title="Idling period / extra rounds / LER for the Table 2 configuration",
    builder=_table2,
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


def _table4(params):
    return figs.table4_mean_reductions(
        distances=tuple(params["distances"]),
        tau_ns=float(params["tau_ns"]),
        shots=int(params["shots"]),
        t_pp_values_ns=tuple(params["t_pp_values_ns"]),
        eps_ns=float(params["eps_ns"]),
        rng=int(params["seed"]),
    )


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


register(FigureSpec(
    name="table4",
    category="ler-sweep",
    anchor="Table 4",
    title="Mean LER reduction of Active / Extra Rounds / Hybrid vs Passive",
    builder=_table4,
    params={"distances": (5,), "tau_ns": 1000.0, "shots": 12_000,
            "t_pp_values_ns": (1050.0, 1150.0), "eps_ns": 400.0, "seed": 2025},
    columns=("distance", "active", "extra_rounds", "hybrid"),
    sweeps=_table4_sweeps,
    vega={"mark": "bar", "x": "distance", "y": "hybrid"},
))
