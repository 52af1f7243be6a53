"""Workloads, output checks and layer tracing behind ``perfbench/run.py``.

Every workload drives the program only through its public entry points
(``run_surgery_ler``, ``prepared_pipeline``, ``clear_pipeline_cache``,
``run_sweep`` with a ``SweepSpec``, ``ResultStore``, and
``reset_warm_state`` so that every sweep starts as cold as a fresh
process).  A workload is a set-up step, repeated to take a median, and a
*unit*: one closed-loop piece of work whose program time is ``wall_s``.

Checks, each feeding ``failed`` / ``attempted`` (counted per point):

* on ``cold_points`` every extracted DEM must have exactly the reference
  number of errors and the reference sha256 of its sorted error list;
* on every workload every point's failure count per observable must agree
  with the reference count under an exact two-sided test at false-alarm
  rate :data:`ALPHA` (see :func:`agreement_p_value`); a point that raises
  or yields a non-finite LER fails too;
* on ``sweep_d3_store`` the store-served re-run must decode nothing and
  return the first run's records.

The traced run (``--trace 1``) turns on the ``repro.obs`` recorder and,
from outside the program, wraps the module-level names that
``repro.experiments.ler`` calls during circuit analysis, so synthesis,
DEM extraction and the graph/sampler builds get spans of their own next
to the program's ``ler.sample``/``decode.*``/``store.commit``/``sweep.*``
spans.  Layer numbers are self times (a span minus the spans nested in
it) summed over one traced episode, reported as the median over episodes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import GOOGLE, IBM, SurgeryLerConfig, make_policy, obs, run_surgery_ler
from repro.decoders import kernels
from repro.experiments import ler
from repro.experiments.ler import (
    clear_pipeline_cache,
    pipeline_analysis_count,
    prepared_pipeline,
)
from repro.experiments.parallel import reset_warm_state
from repro.experiments.sweeps import PolicySpec, SweepSpec, run_sweep
from repro.store import STORE_SALT, ResultStore

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"
#: scratch directory (relative to the working directory) for temporary stores
TMP_DIRNAME = ".perfbench_tmp"

#: two-sided false-alarm rate of one failure-count check
ALPHA = 1e-6
#: shots of the small decode that closes every set-up repetition
WARMUP_SHOTS = 200
#: a measured run always times at least this many units
MIN_UNITS = 3
#: configuration every set-up repetition analyses
SETUP_POINT = SurgeryLerConfig(distance=5, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3)

#: workload sizes: "full" is what BENCHMARK.json measures, "smoke" is the
#: tiny size smoke.py runs
SIZES = {
    "full": {
        "cold_points": {"distances": (7, 9), "shots": 2000},
        "sweep_d3_store": {"batch_shots": 10_000, "max_shots": 50_000},
    },
    "smoke": {
        "cold_points": {"distances": (3, 5), "shots": 500},
        "sweep_d3_store": {"batch_shots": 1000, "max_shots": 2000},
    },
}


# --------------------------------------------------------------- checks


def point_label(cfg: SurgeryLerConfig) -> str:
    """Reference-file key of one configuration."""
    hw = cfg.hardware
    args = ",".join(f"{k}={v}" for k, v in cfg.policy_args)
    tpp = "-" if cfg.t_pp_ns is None else f"{cfg.t_pp_ns:g}"
    return (
        f"{hw.name}@{hw.cycle_time_ns:g}ns/{cfg.policy_name}[{args}]/d{cfg.distance}"
        f"/tau{cfg.tau_ns:g}/tpp{tpp}/p{cfg.p:g}"
    )


def dem_digest(dem) -> str:
    """sha256 of a DEM's error list in sorted order, probabilities bit-exact."""
    h = hashlib.sha256()
    for e in sorted(dem.errors, key=lambda e: (e.detectors, e.observables, e.probability)):
        h.update(f"{float(e.probability).hex()} {e.detectors} {e.observables}\n".encode())
    return h.hexdigest()


def agreement_p_value(failures: int, shots: int, ref_failures: int, ref_shots: int) -> float:
    """Two-sided p-value that two failure counts share one LER (Fisher's exact test).

    Given the pooled failures, this sample's count is hypergeometric under
    a common rate; the p-value is twice the tail beyond the observed count
    on its side of the mean.  Unlike a normal approximation it stays exact
    at the handful of failures a low-LER point yields, so it tolerates a
    different sampling stream of the same configuration yet rejects a
    wrong LER as soon as the counts can tell them apart.
    """
    total, pooled = shots + ref_shots, failures + ref_failures
    base = math.lgamma(pooled + 1) + math.lgamma(total - pooled + 1) - math.lgamma(total + 1)
    base += math.lgamma(shots + 1) + math.lgamma(ref_shots + 1)

    def pmf(k: int) -> float:
        return math.exp(
            base - math.lgamma(k + 1) - math.lgamma(pooled - k + 1)
            - math.lgamma(shots - k + 1) - math.lgamma(ref_shots - pooled + k + 1)
        )

    step = 1 if failures * total >= pooled * shots else -1
    stop = min(pooled, shots) if step == 1 else max(0, pooled - ref_shots)
    k, tail = failures, 0.0
    while True:
        term = pmf(k)
        tail += term
        if k == stop or term <= tail * 1e-17:
            return min(1.0, 2.0 * tail)
        k += step


def ler_problems(refs: dict, label: str, failures, shots: int) -> list[str]:
    ref = refs["points"].get(label)
    if ref is None or "failures" not in ref:
        return [f"{label}: no reference failure counts"]
    if len(failures) != len(ref["failures"]):
        return [f"{label}: {len(failures)} observables, reference has {len(ref['failures'])}"]
    out = []
    for k, (f, ref_f) in enumerate(zip(failures, ref["failures"])):
        if shots <= 0 or not math.isfinite(f / shots):
            out.append(f"{label}: observable {k}: non-finite LER ({f} / {shots})")
        elif agreement_p_value(int(f), shots, ref_f, ref["shots"]) < ALPHA:
            out.append(
                f"{label}: observable {k}: {f} failures in {shots} shots disagree with "
                f"the reference {ref_f} in {ref['shots']} (p < {ALPHA:g})"
            )
    return out


def result_problems(refs: dict, label: str, result) -> list[str]:
    """Checks of one ``run_surgery_ler`` result against its reference LER."""
    if not all(math.isfinite(rate) for rate in result.ler):
        return [f"{label}: non-finite LER {result.ler}"]
    return ler_problems(refs, label, [e.successes for e in result.estimates], result.shots)


def dem_problems(refs: dict, label: str, dem) -> list[str]:
    ref = refs["points"].get(label, {})
    if "dem_errors" not in ref:
        return [f"{label}: no reference DEM"]
    out = []
    if len(dem.errors) != ref["dem_errors"]:
        out.append(f"{label}: DEM has {len(dem.errors)} errors, reference {ref['dem_errors']}")
    digest = dem_digest(dem)
    if digest != ref["dem_sha256"]:
        out.append(f"{label}: DEM digest {digest[:16]}... differs from the reference")
    return out


# --------------------------------------------------------------- workloads


@dataclass
class Unit:
    """Outcome of one set-up repetition, unit or episode."""

    wall: float = 0.0
    shots: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    distinct: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches_decoded: int = 0
    overshoot: int = 0
    rerun_s: float = 0.0

    def point(self, problems: list[str]) -> None:
        """Count one attempted point, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def decoded(self, shots: int, stats: dict) -> None:
        self.shots += shots
        self.distinct += int(stats.get("distinct_syndromes", 0))
        self.cache_hits += int(stats.get("cache_hits", 0))
        self.cache_misses += int(stats.get("cache_misses", 0))


def _raised(label: str) -> list[str]:
    traceback.print_exc(file=sys.stderr)
    return [f"{label}: raised {sys.exc_info()[1]!r}"]


def seeded_rng(*words: int) -> np.random.Generator:
    """A generator seeded from a sequence of non-negative ints."""
    return np.random.default_rng([int(w) for w in words])


class Workload:
    """A set-up step and a closed-loop unit of work, both seeded."""

    name = ""

    def __init__(self, seed: int, size: str, refs: dict, tmp: Path):
        self.seed = seed
        self.refs = refs
        self.tmp = tmp
        self.params = SIZES[size][self.name]

    def setup(self) -> Unit:
        """Analyse a d=5 configuration from scratch and decode a small warm-up batch.

        The warm-up leaves no lazy initialisation (kernel binding, decoder
        construction, first-call costs) for the timed units to pay.  The
        units clear the pipeline cache themselves, so nothing analysed here
        is reused by them.
        """
        clear_pipeline_cache()
        reset_warm_state()
        policy = make_policy(SETUP_POINT.policy_name)
        out = Unit()
        t0 = time.perf_counter()
        result = run_surgery_ler(
            SETUP_POINT, policy, WARMUP_SHOTS, rng=seeded_rng(self.seed, 0), decode_workers=1
        )
        out.wall = time.perf_counter() - t0
        out.decoded(WARMUP_SHOTS, result.decode_stats)
        return out

    def unit(self, index: int) -> Unit:
        raise NotImplementedError


class ColdPoints(Workload):
    """Every point is a configuration the process has not analysed yet."""

    name = "cold_points"

    def __init__(self, *args):
        super().__init__(*args)
        self.shots = self.params["shots"]
        self.points = [
            SurgeryLerConfig(distance=d, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3)
            for d in self.params["distances"]
        ]
        self.policy = make_policy("active")

    def unit(self, index: int) -> Unit:
        out = Unit()
        for j, cfg in enumerate(self.points):
            label = point_label(cfg)
            clear_pipeline_cache()
            try:
                t0 = time.perf_counter()
                pipe = prepared_pipeline(cfg, self.policy)
                result = run_surgery_ler(
                    cfg, self.policy, self.shots, rng=seeded_rng(self.seed, index, j), decode_workers=1
                )
                out.wall += time.perf_counter() - t0
            except Exception:
                out.point(_raised(label))
                continue
            out.decoded(self.shots, result.decode_stats)
            out.point(dem_problems(self.refs, label, pipe.dem) + result_problems(self.refs, label, result))
        return out


#: the fig19 policy set at one Hybrid epsilon
SWEEP_POLICIES = (
    PolicySpec("passive"),
    PolicySpec("active"),
    PolicySpec("extra_rounds"),
    PolicySpec("hybrid", (("eps_ns", 100.0), ("max_rounds", 100))),
)


class SweepD3Store(Workload):
    """A store-backed fig19-shaped sweep in a fresh store, then its re-run."""

    name = "sweep_d3_store"

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = SweepSpec(
            name="perfbench-sweep-d3",
            distances=(3,),
            taus_ns=(500.0, 1000.0),
            policies=SWEEP_POLICIES,
            hardware=GOOGLE.with_cycle_time(1000.0),
            t_pp_ns=1050.0,
            batch_shots=self.params["batch_shots"],
            min_shots=self.params["batch_shots"],
            max_shots=self.params["max_shots"],
        )

    def unit(self, index: int) -> Unit:
        out = Unit()
        # a cold process: no analysed pipelines, no warm syndrome caches
        clear_pipeline_cache()
        reset_warm_state()
        seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        spec = dataclasses.replace(self.spec, seed=seed)
        root = tempfile.mkdtemp(prefix="store-", dir=self.tmp)
        try:
            t0 = time.perf_counter()
            first = run_sweep(spec, ResultStore(root), workers=1, speculate=1)
            t1 = time.perf_counter()
            again = run_sweep(spec, ResultStore(root), workers=1, speculate=1)
            t2 = time.perf_counter()
        except Exception:
            out.problems += _raised(spec.name)
            out.attempted = out.failed = len(spec.points())
            return out
        finally:
            shutil.rmtree(root, ignore_errors=True)
        out.wall = t2 - t0
        out.rerun_s = t2 - t1
        out.batches_decoded = first.batches_decoded
        out.overshoot = first.batches_overshoot
        served = {o.key: o for o in again.outcomes}
        for o in first.outcomes:
            rec = o.record
            label = point_label(o.point.config)
            out.decoded(int(rec.get("shots", 0)), rec.get("decode_stats", {}))
            problems = []
            if rec.get("status") != "ok" or rec.get("shots") != spec.max_shots:
                problems.append(f"{label}: status {rec.get('status')!r}, {rec.get('shots')} shots")
            else:
                problems += ler_problems(self.refs, label, rec["failures"], rec["shots"])
            rerun = served.get(o.key)
            if rerun is None or rerun.new_shots or (
                (rerun.record.get("failures"), rerun.record.get("shots"))
                != (rec.get("failures"), rec.get("shots"))
            ):
                problems.append(f"{label}: the store-served re-run decoded or changed the point")
            out.point(problems)
        return out


WORKLOADS = {w.name: w for w in (ColdPoints, SweepD3Store)}


# --------------------------------------------------------------- tracing

#: module-level names repro.experiments.ler calls during circuit analysis,
#: and the span the traced run records around each
ANALYSIS_SPANS = {
    "surgery_experiment": "codes.surgery.synth",
    "circuit_to_dem": "stab.dem.extract",
    "build_matching_graph": "decoders.graph.build",
    "DemSampler": "stab.sampler.build",
}


def _spanned(fn, span_name: str):
    def wrapper(*args, **kwargs):
        with obs.span(span_name):
            out = fn(*args, **kwargs)
        if span_name == "stab.dem.extract":
            obs.count("stab.dem.errors", len(out.errors))
        return out

    return wrapper


@contextlib.contextmanager
def traced():
    """Record spans and counters into a fresh recorder for the block."""
    originals = {name: getattr(ler, name) for name in ANALYSIS_SPANS}
    recorder = obs.configure()
    try:
        for name, span_name in ANALYSIS_SPANS.items():
            setattr(ler, name, _spanned(originals[name], span_name))
        yield recorder
    finally:
        for name, fn in originals.items():
            setattr(ler, name, fn)
        obs.disable()


def self_times(events: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span minus the spans nested inside it."""
    spans = sorted((e for e in events if e["dur"] > 0), key=lambda e: (e["ts"], -e["dur"]))
    out: dict[str, float] = {}
    stack: list[list] = []  # [name, dur, end, nested]

    def close(frame):
        name, dur, _, nested = frame
        out[name] = out.get(name, 0.0) + (dur - nested) / 1e9

    for e in spans:
        while stack and stack[-1][2] <= e["ts"]:
            close(stack.pop())
        if stack:
            stack[-1][3] += e["dur"]
        stack.append([e["name"], e["dur"], e["ts"] + e["dur"], 0])
    while stack:
        close(stack.pop())
    return out


def layer_metrics(ep: Unit, recorder, analyses: int) -> dict[str, float]:
    """Per-layer numbers of one traced episode."""
    events = recorder.events
    selfs = self_times(events)

    def s(name):
        return selfs.get(name, 0.0)

    rows = sum(e.get("args", {}).get("rows", 0) for e in events if e["name"] == "decode.kernel")
    looked_up = ep.cache_hits + ep.cache_misses
    return {
        "codes.surgery.synth_s": s("codes.surgery.synth"),
        "stab.dem.extract_s": s("stab.dem.extract"),
        "stab.dem.share": s("stab.dem.extract") / ep.wall if ep.wall else 0.0,
        "stab.dem.errors": recorder.counters.get("stab.dem.errors", 0),
        "experiments.ler.analyses": analyses,
        "decoders.graph.build_s": s("decoders.graph.build"),
        "stab.sampler.build_s": s("stab.sampler.build"),
        "stab.sampler.sample_s": s("ler.sample"),
        "decoders.batch.dedup_s": s("decode.dedup"),
        "decoders.batch.distinct_ratio": ep.distinct / ep.shots if ep.shots else 0.0,
        "decoders.batch.cache_s": s("decode.cache"),
        "decoders.batch.cache_hit_rate": ep.cache_hits / looked_up if looked_up else 0.0,
        "decoders.kernels.kernel_s": s("decode.kernel"),
        "decoders.kernels.rows": rows,
        "decoders.kernels.rows_per_s": rows / s("decode.kernel") if s("decode.kernel") else 0.0,
        "store.commit_s": s("store.commit"),
        "store.commits": sum(1 for e in events if e["name"] == "store.commit"),
        "experiments.sweeps.apply_s": s("sweep.apply"),
        "experiments.sweeps.idle_s": s("sweep.idle"),
        "experiments.sweeps.batches_decoded": ep.batches_decoded,
        "experiments.sweeps.overshoot": ep.overshoot,
        "experiments.sweeps.rerun_s": ep.rerun_s,
        "unattributed_s": ep.wall - sum(selfs.values()),
    }


# --------------------------------------------------------------- measuring


def repeat_for(seconds: float, fn, min_count: int) -> list:
    """Call ``fn(i)`` back to back until the next call would overrun ``seconds``."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(fn(len(out)))
        spent = time.perf_counter() - t0
        if len(out) >= min_count and spent + spent / len(out) > seconds:
            return out


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def measure(workload: Workload, seconds: float) -> tuple[dict, list[Unit]]:
    """End-to-end metrics, tracing off.

    ``setup_s`` is the median of one set-up before the first unit and one
    after every unit: the host's speed drifts over seconds, and set-ups
    spread over the whole run sample it as the units do.
    """
    setups = [workload.setup()]

    def unit_then_setup(index: int) -> Unit:
        out = workload.unit(index)
        setups.append(workload.setup())
        return out

    units = repeat_for(seconds, unit_then_setup, MIN_UNITS)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "setup_s": _median(s.wall for s in setups),
        "wall_s": _median(u.wall for u in units),
        "shots_per_s": _median(u.shots / u.wall for u in units if u.wall > 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }
    return metrics, setups + units


def episode(workload: Workload, index: int, trace: bool) -> tuple[Unit, dict | None]:
    """One unit, traced or not."""
    before = pipeline_analysis_count()
    with traced() if trace else contextlib.nullcontext() as recorder:
        ep = workload.unit(index)
    if not trace:
        return ep, None
    return ep, layer_metrics(ep, recorder, pipeline_analysis_count() - before)


def trace_layers(workload: Workload, seconds: float) -> tuple[dict, list[Unit]]:
    """Per-layer metrics: untraced and traced units, alternating."""
    workload.setup()
    pairs = repeat_for(
        seconds,
        lambda i: (episode(workload, 2 * i, False), episode(workload, 2 * i + 1, True)),
        1,
    )
    plain = [p[0][0] for p in pairs]
    traced_eps = [p[1] for p in pairs]
    metrics = {
        name: _median(layers[name] for _, layers in traced_eps)
        for name in traced_eps[0][1]
    }
    untraced_wall = _median(u.wall for u in plain)
    metrics["obs.trace_overhead_ratio"] = (
        _median(ep.wall for ep, _ in traced_eps) / untraced_wall if untraced_wall else 0.0
    )
    return metrics, plain + [ep for ep, _ in traced_eps]


# --------------------------------------------------------------- reporting


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, root: Path) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "backend": kernels.resolve("auto").name,
        "executor": "inline",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "store_salt": STORE_SALT,
        "git_commit": git_commit(root),
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(args) -> int:
    factory = WORKLOADS.get(args.workload)
    if factory is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    root = Path.cwd()
    refs = json.loads(Path(args.references or REFERENCE_FILE).read_text())
    units_of = metric_units(bool(args.trace))
    tmp = root / TMP_DIRNAME / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    try:
        print("provenance " + json.dumps(provenance(args, root), sort_keys=True), flush=True)
        workload = factory(args.seed, args.size, refs, tmp)
        run = trace_layers if args.trace else measure
        metrics, units = run(workload, args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for problem in (p for u in units for p in u.problems):
        print("FAILED " + problem, file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units_of[name]}")
    print(f"fail_ratio {failed / attempted if attempted else 1.0:.6g} ratio ({failed}/{attempted} points)")
    correct = attempted > 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units_of.items()
        },
    }))
    return 0 if correct else 1
