"""Command-line interface: regenerate any of the paper's figures/tables.

Usage::

    python -m repro.cli figures list
    python -m repro.cli figures build fig10 --no-store
    python -m repro.cli figures build fig14_ibm --store results/store
    python -m repro.cli figures build --all --format json --format csv --format vega
    python -m repro.cli figures build fig19 --shots 50000 --param "taus_ns=[500.0]"

    python -m repro.cli lint                              # determinism/contract lint
    python -m repro.cli lint --only salt-drift --format json
    python -m repro.cli lint --update-lock                # bless decode-path edits

    python -m repro.cli sweep run spec.json --store results/store
    python -m repro.cli sweep run spec.json --workers 8
    python -m repro.cli sweep status spec.json --store results/store
    python -m repro.cli sweep watch --latest --store results/store
    python -m repro.cli sweep export spec.json --store results/store --out rows.json
    python -m repro.cli sweep gc --older-than 30 --store results/store --dry-run
    python -m repro.cli sweep clear --store results/store --yes

    python -m repro.cli runs list --store results/store
    python -m repro.cli runs show --latest --store results/store
    python -m repro.cli runs gc --older-than 30 --store results/store

    python -m repro.cli metrics summarize metrics.json

``figures`` is the one figure path: the declarative registry front end
(docs/FIGURES.md), where every paper figure/table is a registered
``FigureSpec`` built through the active result store — decode on miss,
zero decoding on a warm store; ``--no-store`` builds through a temporary
store and gives the same numbers.  The ``sweep`` subcommands drive the
resumable orchestrator over a content-addressed result store (see
``docs/SWEEPS.md`` for the spec format and store layout); ``runs`` and
``sweep watch`` read the run ledger it records under ``runs/``.
The decode path is the host's: the C kernels when ``cc`` builds them, else
the bit-identical scalar pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

def _jsonable(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    return str(obj)


def _version() -> str:
    """Package version: installed metadata first, source fallback.

    The metadata path is what a wheel/venv install reports; the fallback
    serves PYTHONPATH=src checkouts where no distribution is installed.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _lint(args) -> int:
    from . import analysis

    if args.list_rules:
        for name in analysis.names():
            rule = analysis.get(name)
            print(f"{name:26s} [{rule.severity}/{rule.scope}] {rule.description}")
        return 0
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
        unknown = [n for n in only if n not in analysis.names()]
        if unknown:
            print(
                f"unknown lint rule(s): {', '.join(unknown)}; registered: "
                f"{', '.join(analysis.names())}",
                file=sys.stderr,
            )
            return 2
    root = args.root
    if args.update_lock:
        ctx = analysis.LintContext(analysis.find_root(root))
        written = analysis.update_lock(ctx)
        print(f"wrote {written}", file=sys.stderr)
    try:
        report = analysis.run_lint(
            args.paths or None, root=root, only=only, baseline=args.baseline
        )
    except (OSError, ValueError) as exc:
        print(f"lint failed: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for f in report.findings:
            print(f.format())
        silenced = ""
        if report.suppressed or report.baselined:
            silenced = (
                f" ({report.suppressed} pragma-suppressed,"
                f" {report.baselined} baselined)"
            )
        print(
            f"lint: {len(report.findings)} finding(s) from {len(report.rules)} "
            f"rule(s) over {len(report.files)} file(s){silenced}",
            file=sys.stderr,
        )
    return 1 if report.findings else 0


def _figures(args) -> int:
    """Handle ``repro figures list|build`` (docs/FIGURES.md)."""
    from . import figures as figures_pkg
    from .figures import export as figures_export

    if args.figures_command == "list":
        rows = []
        for name in figures_pkg.names():
            spec = figures_pkg.get(name)
            aliases = sorted(a for a, c in figures_pkg.ALIASES.items() if c == name)
            rows.append({
                "name": name,
                "category": spec.category,
                "anchor": spec.anchor,
                "title": spec.title,
                "aliases": aliases,
                "params": figures_export.plain(dict(spec.params)),
            })
        if args.format == "json":
            print(json.dumps(rows, indent=2))
            return 0
        name_w = max(len(r["name"]) for r in rows)
        cat_w = max(len(r["category"]) for r in rows)
        anchor_w = max(len(r["anchor"]) for r in rows)
        for r in rows:
            alias = f"  (alias: {', '.join(r['aliases'])})" if r["aliases"] else ""
            print(
                f"{r['name']:<{name_w}}  {r['category']:<{cat_w}}  "
                f"{r['anchor']:<{anchor_w}}  {r['title']}{alias}"
            )
        return 0

    names = list(args.names)
    if args.all and names:
        print("figures build: give NAME... or --all, not both", file=sys.stderr)
        return 2
    if args.all:
        names = figures_pkg.names()
    if not names:
        print("figures build: give NAME... or --all", file=sys.stderr)
        return 2
    try:
        canonical = [figures_pkg.canonical_name(n) for n in names]
    except KeyError as exc:
        print(f"figures build: {exc.args[0]}", file=sys.stderr)
        return 2

    overrides = {}
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.seed is not None:
        overrides["seed"] = args.seed
    distances = None
    if args.distances is not None:
        distances = tuple(int(x) for x in args.distances.split(",") if x.strip())
        if not distances:
            print("figures build: --distances needs at least one value", file=sys.stderr)
            return 2
    for kv in args.param or []:
        key, sep, value = kv.partition("=")
        if not sep or not key:
            print(f"figures build: --param expects KEY=VALUE, got {kv!r}", file=sys.stderr)
            return 2
        try:
            overrides[key] = json.loads(value)
        except ValueError:
            overrides[key] = value

    # exact-name builds validate override keys against the spec schema;
    # bulk builds apply each override wherever the schema has the key
    strict = len(canonical) == 1
    store = False if args.no_store else _resolve_store(args.store)
    formats = args.format or ["json"]
    for name in canonical:
        spec = figures_pkg.get(name)
        spec_overrides = overrides
        if distances is not None:
            # --distances sets the one key this spec's schema has (a
            # single-distance spec takes the deepest requested code); a spec
            # with neither gets ``distances``, which strict resolution names.
            # --param keys still win
            if "distances" not in spec.params and "distance" in spec.params:
                spec_overrides = {"distance": distances[-1], **overrides}
            else:
                spec_overrides = {"distances": distances, **overrides}
        try:
            result = figures_pkg.build_figure(
                name,
                spec_overrides,
                store=store,
                workers=args.workers,
                strict=strict,
            )
        except ValueError as exc:
            print(f"figures build: {exc}", file=sys.stderr)
            return 2
        doc = result.document()
        paths = figures_pkg.write_outputs(doc, args.out, formats, hints=spec.vega)
        source = "store" if result.served_from_store else "built"
        print(
            f"[{name}] {len(result.rows)} rows ({source}) -> "
            + ", ".join(str(p) for p in paths)
        )
    return 0


def _resolve_store(path):
    """Store root: explicit flag > REPRO_STORE_ROOT > ./.repro-store."""
    from .store import ResultStore

    root = path or os.environ.get("REPRO_STORE_ROOT") or ".repro-store"
    return ResultStore(root)


def _load_sweep_spec(cmd: str, path, **overrides):
    """The sweep spec at ``path`` with the non-None ``overrides`` applied.

    The spec validates itself (field, hardware and decoder names included),
    so a bad spec file or override fails here, before anything is decoded:
    prints ``sweep <cmd>: <reason>`` and returns None.
    """
    from .experiments.sweeps import SweepSpec

    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        return dataclasses.replace(SweepSpec.from_json(path), **overrides)
    except (OSError, ValueError) as exc:
        print(f"sweep {cmd}: {exc}", file=sys.stderr)
        return None


def _sweep_run(args) -> int:
    from .experiments.sweeps import plan_sweep, run_sweep

    spec = _load_sweep_spec(
        "run",
        args.spec,
        target_rse=args.target_rse,
        max_shots=args.max_shots,
        seed=args.seed,
    )
    if spec is None:
        return 2
    store = _resolve_store(args.store)
    # resuming is the default: it is bit-identical to a fresh run and never
    # throws away checkpointed batches; --restart opts into recomputation
    if args.workers < 0:
        print("--workers must be non-negative", file=sys.stderr)
        return 2
    if args.dry_run:
        plan = plan_sweep(spec, store, resume=not args.restart)
        for row in plan["points"]:
            cfg = f"d={row['distance']} tau={row['tau_ns']} {row['policy']}"
            if row["status"] in ("converged", "not_applicable"):
                print(f"  {cfg}: {row['status']} (nothing to decode)")
                continue
            print(
                f"  {cfg}: {row['status']} shots={row['shots']}/"
                f"{row['max_shots']}, {row['batches_applied']} batches applied, "
                f"<= {row['batches_remaining']} x {spec.batch_shots} shots to decode"
            )
        t = plan["totals"]
        print(
            f"dry run: {t['decode']}/{t['points']} point(s) need decoding, "
            f"<= {t['batches_remaining']} new batch(es) "
            f"(~{t['est_new_shots']} shots)"
        )
        print("estimates are the shot-cap worst case; target_rse may stop earlier")
        return 0
    # observability: --trace/--metrics-out activate the repro.obs recorder
    # for this run (docs/OBSERVABILITY.md); the env knobs are the flagless
    # spelling.  Decode threads share the one recorder.  Tracing never
    # changes predictions or stored records (tested bit-identity).
    trace_path = args.trace or os.environ.get("REPRO_TRACE") or None
    metrics_path = args.metrics_out or os.environ.get("REPRO_METRICS") or None
    tracing = bool(trace_path or metrics_path)
    if tracing:
        from . import obs

        obs.configure(trace_path=trace_path, metrics_path=metrics_path)
    try:
        report = run_sweep(
            spec,
            store,
            resume=not args.restart,
            workers=args.workers,
            progress=lambda msg: print(f"  {msg}"),
            ledger=False if args.no_ledger else None,
        )
        print(json.dumps(report.summary(), indent=2))
        if report.run_id:
            print(
                f"run {report.run_id} recorded under {store.runs_root}"
                f" (watch with: repro sweep watch {report.run_id}"
                f" --store {store.root})"
            )
        for outcome in report.outcomes:
            rec = outcome.record
            cfg = rec.get("config", {})
            if rec.get("status") == "not_applicable":
                print(
                    f"  d={cfg.get('distance')} tau={cfg.get('tau_ns')} "
                    f"{cfg.get('policy')}: not applicable"
                )
                continue
            rates = [f"{e.rate:.3e}" for e in outcome.estimates]
            src = "store" if outcome.new_shots == 0 else f"+{outcome.new_shots} shots"
            print(
                f"  d={cfg.get('distance')} tau={cfg.get('tau_ns')} "
                f"{cfg.get('policy')}: shots={rec['shots']} ler={rates} [{src}]"
            )
        if tracing:
            if trace_path:
                print(f"wrote trace {obs.write_trace()}")
            if metrics_path:
                print(f"wrote metrics {obs.write_metrics()}")
        return 0
    finally:
        if tracing:
            obs.reset()


def _sweep_status(args) -> int:
    store = _resolve_store(args.store)
    if args.spec is None:
        print(json.dumps(store.summary(), indent=2))
        return 0
    from .obs.ledger import estimate_point_cost

    spec = _load_sweep_spec("status", args.spec)
    if spec is None:
        return 2
    for pt in spec.points():
        key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
        rec = store.get(key)
        cfg = f"d={pt.config.distance} tau={pt.config.tau_ns} {pt.policy_name}"
        if rec is None:
            print(f"  {cfg}: missing")
        elif rec.get("status") == "not_applicable":
            print(f"  {cfg}: not applicable")
        else:
            state = "converged" if rec.get("converged") else "partial"
            print(
                f"  {cfg}: {state} shots={rec['shots']} batches={rec['batches']} "
                f"failures={rec['failures']}"
            )
            if args.verbose:
                # read-only performance view of the committed record: the
                # accumulated decode-engine counters, no decoding triggered
                ds = rec.get("decode_stats") or {}
                secs = float(ds.get("decode_seconds", 0) or 0)
                shots = int(rec.get("shots", 0))
                distinct = int(ds.get("distinct_syndromes", 0))
                distinct_ratio = distinct / shots if shots else 0.0
                throughput = shots / secs if secs > 0 else 0.0
                print(
                    f"      decode_s={secs:.3f} "
                    f"decode_calls={int(ds.get('decode_calls', 0))} "
                    f"distinct_ratio={distinct_ratio:.3f} "
                    f"shots_per_s={throughput:,.0f}"
                )
                # remaining work through the shared cost model (the same
                # numbers --dry-run and `sweep watch` report)
                if rec.get("converged"):
                    progress = "complete"
                else:
                    cost = estimate_point_cost(
                        shots, spec.max_shots, spec.batch_shots
                    )
                    progress = (
                        f"{rec['batches']} batches applied, "
                        f"<= {cost['batches_remaining']} x {spec.batch_shots} "
                        f"shots to decode, shots {shots}/{spec.max_shots}"
                    )
                print(f"      progress: {progress}")
    return 0


def _trace_summarize(args) -> int:
    from . import obs

    try:
        rows = obs.summarize_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot summarize {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print(obs.format_summary(rows))
    return 0


def _metrics_summarize(args) -> int:
    from . import obs

    try:
        data = obs.load_metrics(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot summarize {args.file}: {exc}", file=sys.stderr)
        return 2
    counters = dict(sorted(data["counters"].items()))
    if args.format == "json":
        print(json.dumps({"counters": counters, "rows": data["spans"]}, indent=2))
        return 0
    if counters:
        width = max(len(k) for k in counters)
        print("counters:")
        for name, value in counters.items():
            print(f"  {name:<{width}} {value}")
    print(obs.format_summary(data["spans"]))
    return 0


def _render_watch(snap: dict) -> str:
    """One text frame of `sweep watch` / `runs show` for a run snapshot."""
    lines = [
        f"run {snap['run_id']} sweep={snap['sweep']} status={snap['status']}"
        f" workers={snap['workers']}"
    ]
    for p in snap["points"]:
        shots = (
            f"{p['shots']}/{p['max_shots']}" if p.get("max_shots") else str(p["shots"])
        )
        extra = []
        if p["status"] == "converged" and p.get("stop_reason"):
            extra.append(str(p["stop_reason"]))
        if p["status"] in ("pending", "running"):
            if isinstance(p.get("batches_remaining"), int):
                extra.append(f"~{p['batches_remaining']} to go")
        suffix = f" ({', '.join(extra)})" if extra else ""
        lines.append(
            f"  {p['label']:<28} {p['status']:<14} shots={shots} "
            f"batches={p['batches']}{suffix}"
        )
    t = snap["totals"]
    tail = (
        f"totals: {t['decoded']} decoded / {t['overshoot']} overshoot, "
        f"{t['shots_decoded']} shots"
    )
    if snap.get("rate_batches_per_s"):
        tail += f", {snap['rate_batches_per_s']:.2f} batches/s"
    if snap.get("eta_s") is not None:
        tail += f", eta ~{snap['eta_s']:.0f}s"
    lines.append(tail)
    return "\n".join(lines)


def _resolve_run_id(args, ledger) -> "str | None":
    """RUN_ID positional / --latest resolution shared by watch and show."""
    rid = getattr(args, "run_id", None)
    if rid is None or getattr(args, "latest", False):
        rid = ledger.latest()
        if rid is None:
            print(f"no runs recorded under {ledger.root}", file=sys.stderr)
            return None
    if rid not in ledger.run_ids():
        print(
            f"unknown run id {rid!r} under {ledger.root} (try `repro runs list`)",
            file=sys.stderr,
        )
        return None
    return rid


def _sweep_watch(args) -> int:
    import time

    from .obs import RunLedger, watch_snapshot

    if args.interval <= 0:
        print("--interval must be positive", file=sys.stderr)
        return 2
    store = _resolve_store(args.store)
    ledger = RunLedger.for_store(store)
    rid = _resolve_run_id(args, ledger)
    if rid is None:
        return 2
    try:
        while True:
            snap = watch_snapshot(store, rid)
            print(_render_watch(snap))
            if args.once or snap["status"] != "running":
                return 0
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        # Ctrl-C usually lands in the sleep; leave a final snapshot instead
        # of a traceback, and exit with the conventional SIGINT code
        print()
        snap = watch_snapshot(store, rid)
        print(_render_watch(snap))
        print("watch interrupted", file=sys.stderr)
        return 130


def _runs_list(args) -> int:
    from .obs import RunLedger

    store = _resolve_store(args.store)
    ledger = RunLedger.for_store(store)
    rows = []
    for rid in ledger.run_ids():
        manifest = ledger.manifest(rid) or {}
        summary = manifest.get("summary") or {}
        rows.append(
            {
                "run_id": rid,
                "sweep": manifest.get("sweep"),
                "status": ledger.status(rid),
                "workers": manifest.get("workers"),
                "points": manifest.get("points"),
                "shots_decoded": summary.get("shots_decoded"),
                "batches_decoded": summary.get("batches_decoded"),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print(f"no runs recorded under {ledger.root}")
        return 0
    for r in rows:
        shots = r["shots_decoded"] if r["shots_decoded"] is not None else "-"
        print(
            f"  {r['run_id']}  {str(r['sweep'] or '?'):<20} {r['status']:<12} "
            f"workers={r['workers']} "
            f"points={r['points']} shots_decoded={shots}"
        )
    return 0


def _runs_show(args) -> int:
    from .obs import RunLedger, watch_snapshot

    store = _resolve_store(args.store)
    ledger = RunLedger.for_store(store)
    rid = _resolve_run_id(args, ledger)
    if rid is None:
        return 2
    manifest = ledger.manifest(rid)
    events = ledger.events(rid)
    if args.format == "json":
        print(json.dumps({"manifest": manifest, "events": events}, indent=2))
        return 0
    print(_render_watch(watch_snapshot(store, rid)))
    if manifest:
        print("manifest:")
        for k in (
            "spec_digest",
            "store_salt",
            "seed",
            "backend_resolved",
            "python",
            "platform",
            "cpu_count",
            "created_at",
            "finished_at",
        ):
            if k in manifest:
                print(f"  {k}: {manifest[k]}")
    counts: dict = {}
    for ev in events:
        counts[ev.get("ev")] = counts.get(ev.get("ev"), 0) + 1
    print(
        "events: "
        + (", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none")
    )
    return 0


def _runs_gc(args) -> int:
    from .obs import RunLedger

    store = _resolve_store(args.store)
    ledger = RunLedger.for_store(store)
    summary = ledger.gc(
        older_than_seconds=args.older_than * 86400.0, dry_run=args.dry_run
    )
    verb = "would prune" if args.dry_run else "pruned"
    print(
        f"{verb} {len(summary['removed'])} run(s) older than "
        f"{args.older_than:g} days from {ledger.root} ({summary['kept']} kept)"
    )
    for rid in summary["removed"]:
        print(f"  {rid}")
    return 0


def _sweep_export(args) -> int:
    from .experiments.sweeps import export_records

    # point keys depend on the seed: exports of a sweep that ran with
    # `sweep run --seed N` need the same override to find its records
    spec = _load_sweep_spec("export", args.spec, seed=args.seed)
    if spec is None:
        return 2
    store = _resolve_store(args.store)
    rows = export_records(spec, store)
    payload = json.dumps(rows, indent=2, default=_jsonable)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        missing = sum(1 for r in rows if r.get("status") == "missing")
        print(f"wrote {len(rows)} rows to {args.out} ({missing} missing)")
    else:
        print(payload)
    return 0


def _sweep_gc(args) -> int:
    store = _resolve_store(args.store)
    summary = store.gc(
        older_than_seconds=args.older_than * 86400.0, dry_run=args.dry_run
    )
    verb = "would prune" if args.dry_run else "pruned"
    print(
        f"{verb} {summary['pruned']} of {summary['scanned']} records "
        f"older than {args.older_than:g} days from {store.root}"
    )
    for key in summary["pruned_keys"]:
        print(f"  {key}")
    if summary["dirs_removed"]:
        what = "would remove" if args.dry_run else "removed"
        print(f"{what} empty dirs: {', '.join(summary['dirs_removed'])}")
    return 0


def _sweep_clear(args) -> int:
    store = _resolve_store(args.store)
    count = len(store)
    if not args.yes:
        print(f"store {store.root} holds {count} records; pass --yes to delete them")
        return 1
    removed = store.clear()
    print(f"removed {removed} records from {store.root}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lintp = sub.add_parser(
        "lint",
        help="static determinism/contract analysis of the decode path"
        " (docs/ANALYSIS.md)",
    )
    lintp.add_argument(
        "paths", nargs="*", type=Path,
        help="files/dirs to lint (default: the [tool.repro.lint] paths;"
        " repo-scope contract rules always run)",
    )
    lintp.add_argument(
        "--only", action="append", metavar="RULE",
        help="run only these rules (repeatable, comma-separable)",
    )
    lintp.add_argument("--format", choices=("text", "json"), default="text")
    lintp.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="suppress findings recorded in this JSON report"
        " (produce one with --format json)",
    )
    lintp.add_argument(
        "--update-lock", action="store_true",
        help="rewrite the decode-path digest lock from the current tree"
        " before linting (the intentional-STORE_SALT-bump workflow)",
    )
    lintp.add_argument(
        "--root", type=Path, default=None,
        help="repo root override (default: nearest pyproject.toml)",
    )
    lintp.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )

    sweepp = sub.add_parser(
        "sweep", help="resumable store-backed sweeps (docs/SWEEPS.md)"
    )
    sweep_sub = sweepp.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser("run", help="run or continue a sweep spec")
    sweep_run.add_argument("spec", type=Path, help="sweep spec JSON file")
    sweep_run.add_argument("--store", type=Path, default=None, metavar="DIR")
    sweep_run.add_argument(
        "--restart",
        action="store_true",
        help="discard partial (non-converged) checkpoints and recompute them"
        " from batch 0; converged points are still served from the store",
    )
    sweep_run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="decode batches on a pool of N threads (the C kernel releases"
        " the GIL), with up to N batches per point in flight; 0 or 1 decodes"
        " on the calling thread through the inline executor, one batch at a"
        " time.  Results are bit-identical for any N",
    )
    sweep_run.add_argument(
        "--dry-run",
        action="store_true",
        help="report per-point batches applied vs. needed and estimated new"
        " shots, then exit without decoding anything (read-only, shot-cap"
        " worst case)",
    )
    sweep_run.add_argument(
        "--target-rse",
        type=float,
        default=None,
        help="override the spec's relative-half-width convergence target",
    )
    sweep_run.add_argument("--max-shots", type=int, default=None)
    sweep_run.add_argument("--seed", type=int, default=None)
    sweep_run.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON of this run's pipeline spans"
        " (load in chrome://tracing or ui.perfetto.dev; REPRO_TRACE is the"
        " env spelling; docs/OBSERVABILITY.md).  Tracing never changes"
        " predictions or stored records",
    )
    sweep_run.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a repro.obs.metrics/v2 snapshot (counters + the exact"
        " per-span rows `trace summarize` prints; REPRO_METRICS is the env"
        " spelling)",
    )
    sweep_run.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the run ledger for this invocation (REPRO_RUN_LEDGER=0 is"
        " the env spelling); the ledger never affects records either way",
    )
    sweep_status = sweep_sub.add_parser("status", help="inspect a store / spec")
    sweep_status.add_argument("spec", nargs="?", type=Path, default=None)
    sweep_status.add_argument("--store", type=Path, default=None, metavar="DIR")
    sweep_status.add_argument(
        "--verbose",
        action="store_true",
        help="also report stored per-point decode time, decode calls,"
        " distinct_ratio (distinct syndromes / shots) and shots/s from the"
        " committed records (read-only)",
    )
    sweep_export = sweep_sub.add_parser(
        "export",
        help="emit a sweep's stored records in the benchmark-harness JSON"
        " row format (no decoding)",
    )
    sweep_export.add_argument("spec", type=Path, help="sweep spec JSON file")
    sweep_export.add_argument("--store", type=Path, default=None, metavar="DIR")
    sweep_export.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write the rows here instead of stdout",
    )
    sweep_export.add_argument(
        "--seed", type=int, default=None,
        help="override the spec seed (match a `sweep run --seed N` store)",
    )
    sweep_gc = sweep_sub.add_parser(
        "gc", help="prune stale records and empty point directories"
    )
    sweep_gc.add_argument(
        "--older-than", type=float, required=True, metavar="DAYS",
        help="prune records whose last checkpoint is older than this many days",
    )
    sweep_gc.add_argument("--store", type=Path, default=None, metavar="DIR")
    sweep_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting anything",
    )
    sweep_clear = sweep_sub.add_parser("clear", help="delete every stored record")
    sweep_clear.add_argument("--store", type=Path, default=None, metavar="DIR")
    sweep_clear.add_argument("--yes", action="store_true")
    sweep_watch = sweep_sub.add_parser(
        "watch",
        help="tail a live (or finished) run from its ledger: per-point"
        " progress and an ETA from the applied batches and the shot cap"
        " (read-only)",
    )
    sweep_watch.add_argument(
        "run_id", nargs="?", default=None, help="run id from `repro runs list`"
    )
    sweep_watch.add_argument(
        "--latest", action="store_true", help="watch the most recent run"
    )
    sweep_watch.add_argument("--store", type=Path, default=None, metavar="DIR")
    sweep_watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period while the run is live (default 2s)",
    )
    sweep_watch.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit even if the run is still live",
    )

    runsp = sub.add_parser(
        "runs", help="run-ledger provenance (docs/OBSERVABILITY.md)"
    )
    runs_sub = runsp.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument("--store", type=Path, default=None, metavar="DIR")
    runs_list.add_argument("--format", choices=("text", "json"), default="text")
    runs_show = runs_sub.add_parser(
        "show", help="one run's manifest, event counts and per-point outcome"
    )
    runs_show.add_argument(
        "run_id", nargs="?", default=None, help="run id from `repro runs list`"
    )
    runs_show.add_argument(
        "--latest", action="store_true", help="show the most recent run"
    )
    runs_show.add_argument("--store", type=Path, default=None, metavar="DIR")
    runs_show.add_argument("--format", choices=("text", "json"), default="text")
    runs_gc = runs_sub.add_parser(
        "gc", help="prune run directories older than a horizon"
    )
    runs_gc.add_argument(
        "--older-than", type=float, required=True, metavar="DAYS",
        help="prune runs finished (or last active) more than this many days ago",
    )
    runs_gc.add_argument("--store", type=Path, default=None, metavar="DIR")
    runs_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting anything",
    )

    tracep = sub.add_parser(
        "trace",
        help="observability trace utilities (docs/OBSERVABILITY.md)",
    )
    trace_sub = tracep.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="per-span-kind phase breakdown (count, total, p50/p95/p99) of a"
        " trace file written by `sweep run --trace`",
    )
    trace_summarize.add_argument("file", type=Path, help="Chrome trace JSON file")
    trace_summarize.add_argument("--format", choices=("text", "json"), default="text")

    metricsp = sub.add_parser(
        "metrics",
        help="observability metrics utilities (docs/OBSERVABILITY.md)",
    )
    metrics_sub = metricsp.add_subparsers(dest="metrics_command", required=True)
    metrics_summarize = metrics_sub.add_parser(
        "summarize",
        help="counters and the stored per-span rows (count, total, exact"
        " p50/p95/p99) of a repro.obs.metrics/v2 snapshot written by"
        " `sweep run --metrics-out`",
    )
    metrics_summarize.add_argument("file", type=Path, help="metrics snapshot JSON")
    metrics_summarize.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    figuresp = sub.add_parser(
        "figures",
        help="declarative figure registry: list specs / build artifacts"
        " through the result store (docs/FIGURES.md)",
    )
    figures_sub = figuresp.add_subparsers(dest="figures_command", required=True)
    figures_list = figures_sub.add_parser(
        "list", help="list every registered figure spec (name, category, anchor)"
    )
    figures_list.add_argument("--format", choices=("text", "json"), default="text")
    figures_build = figures_sub.add_parser(
        "build",
        help="build figure artifacts; warm-store rebuilds decode nothing",
    )
    figures_build.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="canonical figure names or aliases (see 'figures list')",
    )
    figures_build.add_argument(
        "--all", action="store_true", help="build every registered figure"
    )
    figures_build.add_argument(
        "--format",
        action="append",
        choices=("json", "csv", "vega"),
        default=None,
        metavar="FMT",
        help="artifact format, repeatable (default: json; vega = themed"
        " Vega-Lite spec)",
    )
    figures_build.add_argument(
        "--out",
        type=Path,
        default=Path("figures"),
        help="output directory (default: ./figures)",
    )
    figures_build.add_argument(
        "--store",
        type=Path,
        default=None,
        help="result store root (default: REPRO_STORE_ROOT or ./.repro-store)",
    )
    figures_build.add_argument(
        "--no-store",
        action="store_true",
        help="build without a persistent store or figure cache: always"
        " decode, through a temporary store (same numbers as a store build)",
    )
    figures_build.add_argument("--shots", type=int, default=None)
    figures_build.add_argument("--seed", type=int, default=None)
    figures_build.add_argument(
        "--distances",
        default=None,
        help="comma-separated distances; single-distance specs use the last",
    )
    figures_build.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="spec parameter override (VALUE parsed as JSON, else kept as"
        " a string); repeatable",
    )
    figures_build.add_argument(
        "--workers", type=int, default=1, help="decode threads for store pre-warm"
    )

    args = parser.parse_args(argv)

    if args.command == "lint":
        return _lint(args)

    if args.command == "sweep":
        if args.sweep_command == "run":
            return _sweep_run(args)
        if args.sweep_command == "status":
            return _sweep_status(args)
        if args.sweep_command == "watch":
            return _sweep_watch(args)
        if args.sweep_command == "export":
            return _sweep_export(args)
        if args.sweep_command == "gc":
            return _sweep_gc(args)
        return _sweep_clear(args)

    if args.command == "runs":
        if args.runs_command == "list":
            return _runs_list(args)
        if args.runs_command == "show":
            return _runs_show(args)
        return _runs_gc(args)

    if args.command == "metrics":
        return _metrics_summarize(args)

    if args.command == "trace":
        return _trace_summarize(args)

    return _figures(args)


if __name__ == "__main__":
    sys.exit(main())
