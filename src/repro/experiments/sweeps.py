"""Resumable LER sweep orchestration with adaptive stopping over the result store.

This is the durable layer the paper's 128-core x 5-day evaluation implies:
a declarative :class:`SweepSpec` expands into points (configuration x
policy), each point's shots are decoded in fixed-size *batches* whose seeds
are pure functions of ``(sweep seed, point key, batch index)``
(:func:`repro.store.batch_entropy`), and every completed batch is
checkpointed into a content-addressed :class:`~repro.store.ResultStore`.
Consequences:

* **Resumable** — an interrupted sweep continues from its last checkpoint
  and produces *bit-identical* estimates to an uninterrupted run, because
  batch streams depend only on stable keys, never on execution order, pool
  size or wall clock.
* **Incremental** — re-invoking a finished sweep decodes zero new shots;
  tightening ``target_rse`` or raising ``max_shots`` adds batches to the
  existing records instead of starting over.
* **Adaptive** — each point keeps adding batches until the tracked
  observable's Wilson interval is tight (relative half-width <=
  ``target_rse``) or the shot cap is hit.  Convergence is evaluated batch by
  batch in index order, so the stopping decision is independent of the
  worker count (batches decoded past the stopping point stay in the
  commit-ahead log; they are never accumulated).  Every batch is exactly
  ``batch_shots`` shots.
* **One scheduler** — every sweep, including the ones figure builds
  declare, runs through :meth:`_SweepRun.run_concurrent`: one executor is
  shared by *all* points of the sweep, a pool interleaves points, and while
  the stopping rule evaluates batch *k* of a point, batches ``k+1 ..
  k+depth`` are already decoding (``depth`` is ``speculate``, or the worker count when
  ``speculate=0``).  Results are *applied* strictly in batch-index order, so
  estimates and stored records are bit-identical for any worker count and
  speculation depth — equal to decoding the batches one by one in index
  order; batches that complete after the stopping rule fired are committed
  to the store's per-batch *commit-ahead log* (deterministic in ``(seed,
  point key, batch index)``) where any later pass replays them instead of
  decoding again.  Points are admitted largest estimated remaining work
  first; outcomes are emitted in sweep order.
* **Exportable / collectable** — :func:`export_records` (CLI ``repro sweep
  export``) emits stored records in the benchmark-harness JSON row format
  without decoding anything, and ``repro sweep gc --older-than DAYS``
  prunes stale records plus emptied point directories.
* **Decode threads** — the orchestrator analyzes each configuration once
  and every batch task carries that analyzed pipeline; ``workers > 1``
  decodes the tasks on a thread pool (the GIL-free C kernel does the
  work), so nothing is serialized and no thread re-analyzes a circuit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.policies import PolicyNotApplicableError, make_policy
from ..decoders import kernels
from ..noise.hardware import PRESETS, HardwareConfig
from ..obs import ledger as _oledger
from ..store import ResultStore, batch_entropy, point_key
from . import ler as _ler
from .ler import SurgeryLerConfig
from .parallel import THREAD_NAME_PREFIX, InlineExecutor, SweepTask, submit_task
from .stats import RateEstimate, wilson_interval

__all__ = [
    "PolicySpec",
    "SweepSpec",
    "SweepPoint",
    "PointOutcome",
    "SweepReport",
    "run_sweep",
    "plan_sweep",
    "point_record_estimates",
    "record_parity_view",
    "export_records",
]

#: record fields that depend on execution (wall clock, warm-cache state,
#: worker scheduling) and never on the estimates.  Everything else is
#: covered by the scheduler bit-identity contract.
EXECUTION_DEPENDENT_RECORD_FIELDS = ("decode_stats", "updated_at")


def _wallclock() -> float:
    """Record-metadata timestamp (``updated_at``): checkpoint freshness for
    humans and ``sweep gc``.  Explicitly execution-dependent
    (:data:`EXECUTION_DEPENDENT_RECORD_FIELDS`) — never part of keys,
    estimates or any stored number the parity contract covers.
    """
    return time.time()  # lint: ok[determinism-time] metadata timestamp only


def record_parity_view(record: dict) -> dict:
    """A stored record minus its execution-dependent fields.

    This is the view the parity contract quantifies over: inline, threaded
    and speculative runs must produce *identical* parity views for every
    point, equal to an in-order batch-by-batch decode
    (tests/test_speculation.py and the speculation microbenchmark both
    compare through this helper).
    """
    return {
        k: v
        for k, v in record.items()
        if k not in EXECUTION_DEPENDENT_RECORD_FIELDS
    }

#: decode-stat counters accumulated batch-by-batch into stored records
#: (shared with the per-batch commit-ahead records via
#: :meth:`~repro.experiments.ler.LerResult.batch_stats`)
_ACCUM_KEYS = _ler.BATCH_STAT_KEYS


@dataclass(frozen=True)
class PolicySpec:
    """One policy entry of a sweep: registry name + constructor kwargs."""

    name: str
    kwargs: tuple = ()

    @classmethod
    def coerce(cls, value) -> "PolicySpec":
        if isinstance(value, PolicySpec):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, dict):
            extra = {k: v for k, v in value.items() if k not in ("name", "kwargs")}
            kwargs = dict(value.get("kwargs", {}), **extra)
            return cls(value["name"], tuple(sorted(kwargs.items())))
        raise TypeError(f"cannot interpret policy spec {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one LER sweep (JSON round-trippable)."""

    name: str
    distances: tuple[int, ...]
    taus_ns: tuple[float, ...]
    policies: tuple[PolicySpec, ...]
    hardware: HardwareConfig
    p: float = 1e-3
    ls_basis: str = "Z"
    t_pp_ns: float | None = None
    base_rounds: int | None = None
    decoder: str = "unionfind"
    seed: int = 2025
    #: shots decoded (and checkpointed) per batch; part of every point key
    batch_shots: int = 5000
    #: no convergence check before this many shots
    min_shots: int = 5000
    #: hard cap; the final batch may overshoot it by at most batch_shots - 1
    max_shots: int = 20000
    #: relative Wilson half-width target; None = fixed-shot mode (run to cap)
    target_rse: float | None = None
    #: observable index the stopping rule tracks; None = most-failing one.
    #: Must be below the circuit's observable count (checked per point,
    #: once its circuit is analyzed)
    observable: int | None = None

    def __post_init__(self):
        if self.batch_shots < 1:
            raise ValueError("batch_shots must be positive")
        if self.max_shots < 1:
            raise ValueError("max_shots must be positive")
        if self.target_rse is not None and self.target_rse <= 0:
            raise ValueError(f"target_rse must be positive, got {self.target_rse}")
        if self.observable is not None and self.observable < 0:
            raise ValueError(
                f"observable must be a non-negative index, got {self.observable}"
            )
        # fail at spec construction, not inside a decode thread
        if self.decoder not in _ler.DECODER_BUILDERS:
            raise ValueError(
                f"unknown decoder {self.decoder!r}; known: "
                f"{', '.join(sorted(_ler.DECODER_BUILDERS))}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown SweepSpec field(s): {', '.join(unknown)}")
        data = dict(data)
        hw = data["hardware"]
        if isinstance(hw, str):
            data["hardware"] = PRESETS[hw.lower()]
        elif isinstance(hw, dict):
            data["hardware"] = HardwareConfig(**hw)
        data["distances"] = tuple(int(d) for d in data["distances"])
        data["taus_ns"] = tuple(float(t) for t in data["taus_ns"])
        data["policies"] = tuple(PolicySpec.coerce(p) for p in data["policies"])
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        out["policies"] = [
            {"name": p.name, "kwargs": dict(p.kwargs)} for p in self.policies
        ]
        return out

    def points(self) -> list["SweepPoint"]:
        """Expand to the full distance x tau x policy grid, in sweep order."""
        out = []
        for d in self.distances:
            for tau in self.taus_ns:
                for pol in self.policies:
                    config = SurgeryLerConfig(
                        distance=d,
                        hardware=self.hardware,
                        policy_name=pol.name,
                        tau_ns=float(tau),
                        ls_basis=self.ls_basis,
                        t_pp_ns=self.t_pp_ns,
                        p=self.p,
                        base_rounds=self.base_rounds,
                        policy_args=pol.kwargs,
                    )
                    out.append(
                        SweepPoint(
                            config=config,
                            policy_name=pol.name,
                            policy_kwargs=pol.kwargs,
                            decoder=self.decoder,
                        )
                    )
        return out


@dataclass(frozen=True)
class SweepPoint:
    """One point of an expanded sweep."""

    config: SurgeryLerConfig
    policy_name: str
    policy_kwargs: tuple
    decoder: str = "unionfind"

    def key(self, *, seed: int, batch_shots: int) -> str:
        """Content-addressed store key of this point's result stream.

        The decoder enters via :func:`~repro.experiments.ler.
        decoder_store_identity`, which folds prediction-affecting decoder
        knobs (the hierarchical LUT budget) into the key; the decode path stays
        keyless because the C and scalar paths are bit-identical.
        """
        return point_key(
            self.config,
            self.policy_name,
            self.policy_kwargs,
            decoder=_ler.decoder_store_identity(self.decoder),
            seed=seed,
            batch_shots=batch_shots,
        )


@dataclass
class PointOutcome:
    """One point's state after a sweep pass."""

    point: SweepPoint
    key: str
    record: dict
    #: shots decoded by *this* pass (0 when fully served from the store)
    new_shots: int = 0

    @property
    def estimates(self) -> list[RateEstimate]:
        return point_record_estimates(self.record)


@dataclass
class SweepReport:
    """Aggregate outcome of one :func:`run_sweep` invocation."""

    spec: SweepSpec
    outcomes: list[PointOutcome] = field(default_factory=list)
    #: shots decoded by this invocation (excludes store-served shots)
    shots_decoded: int = 0
    batches_decoded: int = 0
    #: full circuit analyses this pass ran (all of them coordinator-side;
    #: decode threads are handed analyzed pipelines)
    analyses_parent: int = 0
    interrupted: bool = False
    #: speculation depth requested for this pass (0 = one batch in flight
    #: per worker)
    speculate: int = 0
    #: run-ledger id of this invocation (None when the ledger is disabled)
    run_id: str | None = None
    #: batches served from the commit-ahead log instead of being decoded
    batches_replayed: int = 0
    #: batches decoded by this pass but excluded from the estimates (the
    #: stopping rule fired first); they are committed to the store, not
    #: wasted
    batches_overshoot: int = 0

    @property
    def points_from_store(self) -> int:
        return sum(1 for o in self.outcomes if o.new_shots == 0)

    def summary(self) -> dict:
        """Flat dict of the headline counters (CLI/benchmark output)."""
        recs = [o.record for o in self.outcomes]
        return {
            "sweep": self.spec.name,
            "points": len(self.outcomes),
            "points_from_store": self.points_from_store,
            "shots_decoded": self.shots_decoded,
            "batches_decoded": self.batches_decoded,
            "shots_stored": sum(int(r.get("shots", 0)) for r in recs),
            "converged": sum(1 for r in recs if r.get("converged")),
            "not_applicable": sum(
                1 for r in recs if r.get("status") == "not_applicable"
            ),
            "pipeline_analyses_parent": self.analyses_parent,
            "interrupted": self.interrupted,
            "speculate": self.speculate,
            "batches_replayed": self.batches_replayed,
            "batches_overshoot": self.batches_overshoot,
            "run_id": self.run_id,
        }


def point_record_estimates(record: dict) -> list[RateEstimate]:
    """Rebuild the per-observable :class:`RateEstimate` list of a record."""
    shots = int(record.get("shots", 0))
    return [RateEstimate(int(f), shots) for f in record.get("failures", ())]


def _tracked_observable(failures: list[int], observable: int | None) -> int:
    if observable is not None:
        return observable
    return int(np.argmax(failures)) if failures else 0


def _converged(
    failures: list[int], shots: int, spec: SweepSpec
) -> tuple[bool, str | None]:
    """Deterministic stopping rule, evaluated after every applied batch."""
    if spec.target_rse is not None and shots >= spec.min_shots:
        k = _tracked_observable(failures, spec.observable)
        if k < len(failures) and failures[k] > 0:
            rate = failures[k] / shots
            lo, hi = wilson_interval(failures[k], shots)
            if (hi - lo) / 2.0 <= spec.target_rse * rate:
                return True, "target_rse"
    if shots >= spec.max_shots:
        return True, "max_shots"
    return False, None


def _fresh_record(spec: SweepSpec, pt: SweepPoint, key: str, nobs: int) -> dict:
    return {
        "key": key,
        "sweep": spec.name,
        "status": "ok",
        "config": {
            "distance": pt.config.distance,
            "tau_ns": pt.config.tau_ns,
            "policy": pt.policy_name,
            "policy_kwargs": dict(pt.policy_kwargs),
            "p": pt.config.p,
            "hardware": pt.config.hardware.name,
            "decoder": pt.decoder,
        },
        "seed": spec.seed,
        "batch_shots": spec.batch_shots,
        "shots": 0,
        "batches": 0,
        "failures": [0] * nobs,
        "converged": False,
        "stop_reason": None,
        "plan_summary": {},
        "decode_stats": {k: 0 for k in _ACCUM_KEYS},
    }


class _BatchBudget:
    """Optional cap on newly decoded batches (test hook for interruption)."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        """Count one dispatched batch against the cap."""
        self.used += 1

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used >= self.limit


class _ConcurrentPoint:
    """Per-point state machine of the sweep scheduler.

    Tracks the gap between what has been *dispatched* for a point and what
    has been *applied* to its record.  Results are applied strictly in batch
    index order, so however futures complete, the record evolves
    identically.
    """

    def __init__(self, pt, key, record, pipeline, committed):
        self.pt = pt
        self.key = key
        self.record = record
        #: the point's analyzed pipeline, handed to every batch task
        self.pipeline = pipeline
        #: indices available in the commit-ahead log (replayable)
        self.committed = committed
        #: position in the sweep grid (emission order; admission may differ)
        self.pos = 0
        #: index -> in-flight Future
        self.inflight: dict = {}
        #: index -> (batch record, replayed, worker thread name) completed
        #: but not yet applied (the name is ledger provenance, never stored)
        self.pending: dict = {}
        #: next fresh index to dispatch (>= record["batches"])
        self.next_index = record["batches"]
        self.new_shots = 0
        self.new_batches = 0
        self.finished = False

    @property
    def unapplied(self) -> int:
        return len(self.inflight) + len(self.pending)


class _SweepRun:
    """Execution state shared across the points of one sweep pass."""

    def __init__(
        self,
        spec: SweepSpec,
        store: ResultStore,
        *,
        resume: bool = True,
        workers: int = 1,
        speculate: int = 0,
        batch_limit: int | None = None,
        progress=None,
        ledger=None,
    ):
        if speculate < 0:
            raise ValueError("speculate must be non-negative")
        self.spec = spec
        self.store = store
        self.resume = resume
        #: ``workers <= 1`` selects the inline executor: batch tasks run on
        #: the calling thread through the same submit_task interface
        #: (``--workers 0`` is the CLI's explicit spelling)
        self.inline = workers <= 1
        self.workers = max(1, workers)
        self.speculate = speculate
        self.budget = _BatchBudget(batch_limit)
        self.progress = progress or (lambda msg: None)
        #: run-ledger writer — pure observation (events, heartbeats); a
        #: no-op writer when the ledger is off, so call sites stay branchless
        self.ledger = ledger if ledger is not None else _oledger.NULL_RUN_WRITER
        self.report = SweepReport(spec=spec, speculate=speculate)
        #: one executor for the whole run (lazily created): a pool of
        #: ``workers`` decode threads, or the inline executor when
        #: ``workers <= 1``
        self._pool = None

    def close(self) -> None:
        """Shut down the run's executor (if created)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _executor(self):
        """The run-wide executor, created on first use."""
        if self._pool is None:
            self._pool = (
                InlineExecutor()
                if self.inline
                else ThreadPoolExecutor(
                    self.workers, thread_name_prefix=THREAD_NAME_PREFIX
                )
            )
        return self._pool

    # -- batch execution ---------------------------------------------------

    def _batch_seed(self, key: str, batch_index: int):
        entropy, spawn_key = batch_entropy(self.spec.seed, key, batch_index)
        return np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)

    def _make_task(self, pt: SweepPoint, key: str, pipeline, index: int) -> SweepTask:
        """One batch of ``batch_shots`` shots, seeded by ``(seed, key, index)``."""
        return SweepTask(
            config=pt.config,
            policy_name=pt.policy_name,
            policy_kwargs=pt.policy_kwargs,
            shots=self.spec.batch_shots,
            seed=self._batch_seed(key, index),
            decoder=pt.decoder,
            pipeline=pipeline,
        )

    # -- per-point bookkeeping ---------------------------------------------

    def _prepare_point(self, pt: SweepPoint):
        """Load/refresh one point's record and analyze its pipeline.

        Returns ``(key, record, pipeline, resolved)``; ``resolved`` is True
        when the point needs no decoding this pass (not applicable, or the
        stored record already satisfies the current spec) — then
        ``pipeline`` is None and ``record`` is final.  The point's decoder
        is built and its kernel bound here, on the coordinator, so decode
        threads only ever read those caches.
        """
        spec = self.spec
        key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
        record = self.store.get(key)

        if record is not None and record.get("status") == "not_applicable":
            return key, record, None, True

        if record is not None and self._restarts(record):
            record = None

        if record is not None:
            # re-evaluate convergence under the *current* spec: a tightened
            # target_rse / raised max_shots keeps accumulating batches
            done, reason = _converged(record["failures"], record["shots"], spec)
            if done:
                if not record.get("converged") or record.get("stop_reason") != reason:
                    record.update(converged=True, stop_reason=reason)
                    self.store.put(key, record)
                return key, record, None, True
            # continue from the stored prefix with exactly the fields of a
            # fresh record: fields an older scheduler stored are dropped
            fresh = _fresh_record(spec, pt, key, len(record["failures"]))
            record = {k: record.get(k, v) for k, v in fresh.items()}
            record.update(converged=False, stop_reason=None)

        # analyze (or fetch) the pipeline once, on the coordinator
        analyses_before = _ler.PIPELINE_ANALYSES
        try:
            pipe = _ler.prepared_pipeline(
                pt.config, make_policy(pt.policy_name, **dict(pt.policy_kwargs))
            )
        except PolicyNotApplicableError as exc:
            record = _fresh_record(spec, pt, key, nobs=0)
            record.update(
                status="not_applicable",
                converged=True,
                stop_reason="not_applicable",
                detail=str(exc),
                updated_at=_wallclock(),
            )
            self.store.put(key, record)
            return key, record, None, True
        self.report.analyses_parent += _ler.PIPELINE_ANALYSES - analyses_before
        nobs = pipe.dem.num_observables
        if spec.observable is not None and spec.observable >= nobs:
            raise ValueError(
                f"observable {spec.observable} is out of range: the circuit "
                f"of {pt.policy_name} d={pt.config.distance} has {nobs} "
                "observable(s)"
            )
        kernels.bind(pipe.decoder(pt.decoder))

        if record is None:
            record = _fresh_record(spec, pt, key, nobs)
            record["plan_summary"] = pipe.plan_summary()
        return key, record, pipe, False

    def _restarts(self, record: dict) -> bool:
        """Whether a stored record is recomputed from batch 0.

        ``--restart`` (resume=False) recomputes partial points.  A record
        whose applied batches do not all hold ``batch_shots`` shots (only a
        scheduler that grew batches could write one) is recomputed even when
        converged: its numbers are not the ones this spec computes.
        """
        if record["shots"] != record["batches"] * self.spec.batch_shots:
            return True
        return not self.resume and not record.get("converged")

    def _apply_batch(self, record: dict, br: dict, *, replayed: bool) -> None:
        """Fold one batch record into the point record, in index order.

        This is the *only* way shots enter an estimate, so inline, threaded
        and speculative runs accumulate identically.  ``replayed`` batches
        came from the commit-ahead log (decoded by an earlier pass).
        """
        with obs.span("sweep.replay" if replayed else "sweep.apply"):
            record["failures"] = [
                a + int(b) for a, b in zip(record["failures"], br["failures"])
            ]
            record["shots"] += int(br["shots"])
            record["batches"] += 1
            stats = br.get("decode_stats") or {}
            for k in _ACCUM_KEYS:
                record["decode_stats"][k] = (
                    record["decode_stats"].get(k, 0) + stats.get(k, 0)
                )
        obs.count("sweep.batches_replayed" if replayed else "sweep.batches_applied")

    def _checkpoint(self, key: str, record: dict) -> None:
        record["updated_at"] = _wallclock()
        self.store.put(key, record)
        self.progress(
            f"{self.spec.name}: {key[:12]} shots={record['shots']} "
            f"failures={record['failures']}"
        )

    def _finalize_point(self, key: str, record: dict, reason: str | None) -> None:
        """Persist a converged point.

        The applied prefix of the commit-ahead log is trimmed (that data
        now lives in the point record); speculative overshoot is kept for
        future replays.
        """
        record.update(converged=True, stop_reason=reason, updated_at=_wallclock())
        self.store.put(key, record)
        self.store.delete_batches(key, below=record["batches"])
        self.ledger.point_converged(
            key, stop_reason=reason, shots=record["shots"], batches=record["batches"]
        )

    def _committed_batch(self, key: str, index: int, nobs: int) -> dict | None:
        """A structurally valid commit-ahead batch record, or None.

        Everything :meth:`_apply_batch` will sum must be numeric — a
        valid-JSON-but-damaged record returns None and is re-decoded, same
        as a truncated one — and the batch must hold exactly
        ``batch_shots`` shots (only a scheduler that grew batches could have
        committed another size).
        """

        def _count(x) -> bool:
            return isinstance(x, int) and not isinstance(x, bool)

        br = self.store.get_batch(key, index)
        if not isinstance(br, dict):
            return None
        failures = br.get("failures")
        if not _count(br.get("shots")) or not isinstance(failures, list):
            return None
        if br["shots"] != self.spec.batch_shots:
            return None
        if len(failures) != nobs or not all(_count(f) for f in failures):
            return None
        stats = br.get("decode_stats", {})
        if not isinstance(stats, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in stats.values()
        ):
            return None
        return br

    def _replayable(self, key: str) -> set:
        """Commit-ahead indices this pass may replay.

        ``--restart`` (resume=False) means *recompute*: the point's stale
        batch log is deleted so pre-restart results cannot leak back into
        the fresh record through a replay.
        """
        if not self.resume:
            self.store.delete_batches(key)
            return set()
        return set(self.store.batch_indices(key))

    @staticmethod
    def _batch_record_of(result) -> dict:
        """The commit-ahead form of one decoded batch result."""
        return {
            "shots": int(result.shots),
            "failures": [int(e.successes) for e in result.estimates],
            "decode_stats": result.batch_stats(),
        }

    # -- the scheduler -----------------------------------------------------

    def run_concurrent(self, points: list[SweepPoint]) -> None:
        """Run every point on one shared executor, points interleaved.

        While the stopping rule is still digesting batch *k* of a point,
        batches ``k+1 .. k+depth`` of that point (and pending batches of
        every other point) are already decoding; ``depth`` is ``speculate``,
        or the worker count when ``speculate=0``, so a pooled single-point
        run keeps every worker busy.  Completed batches are committed to the
        store's per-batch log immediately; they are *applied* to point
        records strictly in batch-index order through :meth:`_apply_batch` /
        :func:`_converged`, so estimates, shot counts and stored records
        equal an in-order batch-by-batch decode for any worker count and any
        speculation depth.  Batches that complete after their point's
        stopping rule fired stay in the log (deterministic in
        ``(seed, key, index)`` — a later resume or tightened ``target_rse``
        replays them for free) but never enter the estimate.

        With ``workers > 1`` the executor is a pool of decode threads; with
        ``workers <= 1`` it is the :class:`InlineExecutor`: dispatch creates
        lazy futures, and :meth:`_await_some` forces them in submission
        order — speculative futures of a point whose stopping rule already
        fired are cancelled unrun, so the inline scheduler decodes exactly
        the in-order batch set.  (Cancelled batches do *not* refund the
        ``batch_limit`` budget: dispatch counts against the cap.)  Inline,
        at most ``depth`` points are active at once — there is no pool to
        keep busy — so the default depth-1 inline run finishes one point
        before it admits the next.

        Points are admitted by estimated remaining decode work, biggest
        first, so the long-tail point starts earliest; application stays
        per-point in-order, so admission order cannot change records, and
        outcomes are emitted in sweep order.

        Worker exceptions propagate to the caller, but never silently lose
        work: the ``finally`` block cancels or drains orphaned futures
        (completed ones are still committed to the log) and checkpoints
        every unfinished point's partial record, so a later resume replays
        instead of re-decoding.
        """
        depth = self.speculate or self.workers
        # points in flight at once: a thread pool also keeps ``workers``
        # points' analyses ahead of decoding; inline there is nothing to
        # overlap
        capacity = depth if self.inline else self.workers + depth
        self._executor()
        queue = list(enumerate(points))
        if len(queue) > 1:
            costs = {pos: self._admission_cost(pt) for pos, pt in queue}
            # stable sort: ties (e.g. fresh points of one uniform spec) stay
            # in sweep order
            queue.sort(key=lambda item: -costs[item[0]])
        order: list[_ConcurrentPoint] = []  # admission order
        active: list[_ConcurrentPoint] = []
        futures: dict = {}  # Future -> (state, index)

        try:
            while queue or active:
                # admit points while the pool has headroom (analysis of a
                # later point overlaps decoding of earlier ones)
                while (
                    queue
                    and not self.budget.exhausted
                    and len(futures) < capacity
                    and len(active) < capacity
                ):
                    pos, pt = queue.pop(0)
                    key, record, pipe, resolved = self._prepare_point(pt)
                    state = _ConcurrentPoint(
                        pt,
                        key,
                        record,
                        pipe,
                        set() if resolved else self._replayable(key),
                    )
                    state.pos = pos
                    order.append(state)
                    if resolved:
                        state.finished = True
                        self.ledger.point_store_served(
                            key,
                            status=record.get("status"),
                            shots=record.get("shots", 0),
                        )
                        continue
                    self.ledger.point_start(
                        key,
                        config=record.get("config"),
                        shots=record.get("shots", 0),
                        max_shots=self.spec.max_shots,
                    )
                    active.append(state)
                    self._dispatch_point(state, depth, futures)
                for state in active:
                    self._dispatch_point(state, depth, futures)
                if self._drain(active):
                    active = [s for s in active if not s.finished]
                    continue  # applied batches free speculation slots
                if futures:
                    self._await_some(futures)
                    continue
                if self.budget.exhausted:
                    break  # nothing in flight and no budget to dispatch more
                if not active:
                    break  # every admitted point resolved from the store
                # no futures, nothing drained, budget available: only
                # reachable when every active point is blocked, which cannot
                # happen — an unfinished point always admits one dispatch
                raise RuntimeError(
                    "concurrent sweep scheduler stalled"
                )  # pragma: no cover

            # drain stray speculative futures of finished points: their
            # results are committed to the log (nothing wasted, thread mode)
            # or cancelled unrun (inline mode); never applied
            while futures:
                self._await_some(futures)
        finally:
            # a worker exception lands here with futures still in flight:
            # cancel what never started, commit what completed, and
            # checkpoint partial records so resume replays instead of
            # re-decoding (on the clean path this is all a no-op)
            if futures:
                self._abandon(futures)
            if queue or any(not s.finished for s in active):
                self.report.interrupted = True
            for state in active:
                if not state.finished:  # checkpoint interrupted partial state
                    record = dict(state.record)
                    record["updated_at"] = _wallclock()
                    self.store.put(state.key, record)
                    state.record = record
        for state in sorted(order, key=lambda s: s.pos):  # emit in sweep order
            self.report.shots_decoded += state.new_shots
            self.report.batches_decoded += state.new_batches
            self._outcome(state.pt, state.key, state.record, new_shots=state.new_shots)

    def _admission_cost(self, pt: SweepPoint) -> int:
        """Estimated shots this point still needs to decode (read-only).

        The scheduler's admission key: a store/commit-ahead-log peek
        through the shared cost model
        (:func:`repro.obs.ledger.estimate_point_cost`) — the same math
        ``sweep watch`` and ``--dry-run`` report.  Never analyzes a circuit
        and never writes.
        """
        return int(self._plan_point(pt)["est_new_shots"])

    def _plan_point(self, pt: SweepPoint) -> dict:
        """One point's committed-vs-needed work estimate (read-only)."""
        spec = self.spec
        key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
        record = self.store.get(key)
        row = {
            "key": key,
            "distance": pt.config.distance,
            "tau_ns": pt.config.tau_ns,
            "policy": pt.policy_name,
            "status": "missing",
            "shots": 0,
            "max_shots": spec.max_shots,
            "batches_applied": 0,
            "batches_ahead": 0,
            "batches_remaining": 0,
            "est_new_shots": 0,
        }
        if record is not None and record.get("status") == "not_applicable":
            row["status"] = "not_applicable"
            return row
        if record is not None and self._restarts(record):
            # recomputed from batch 0; under --restart its commit-ahead log
            # is discarded too (nothing replayable), otherwise its batches
            # of batch_shots shots replay
            record = None
            row["status"] = "restart"
        if record is not None:
            row["shots"] = int(record.get("shots", 0))
            row["batches_applied"] = int(record.get("batches", 0))
            done, _ = _converged(record["failures"], record["shots"], spec)
            if done:
                row["status"] = "converged"
                return row
            row["status"] = "partial"
            row["batches_ahead"] = sum(
                1
                for i in self.store.batch_indices(key)
                if i >= row["batches_applied"]
            )
        cost = _oledger.estimate_point_cost(
            row["shots"], spec.max_shots, spec.batch_shots, ahead=row["batches_ahead"]
        )
        row["batches_remaining"] = cost["batches_remaining"]
        row["est_new_shots"] = cost["new_shots"]
        return row

    def _await_some(self, futures: dict) -> None:
        """Block for at least one in-flight batch and receive all completed.

        Thread mode waits on FIRST_COMPLETED; when a completed future raises,
        the *other* completed futures are still received (committed to the
        log) before the first exception propagates — a worker crash never
        discards sibling work that already finished.  Inline mode forces the
        earliest-submitted live future instead (batch-index order within a
        point), after cancelling speculative futures of already-finished
        points unrun.
        """
        if self.inline:
            self._await_inline(futures)
            self.ledger.maybe_heartbeat(inflight=len(futures))
            return
        with obs.span("sweep.idle", lambda: {"inflight": len(futures)}):
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
        failure = None
        received = []
        for fut in done:
            state, index = futures.pop(fut)
            try:
                result = fut.result()
            except BaseException as exc:
                state.inflight.pop(index, None)
                if failure is None:
                    failure = exc
            else:
                received.append((state, index, result))
        for state, index, result in received:
            self._receive(state, index, result)
        if failure is not None:
            raise failure
        self.ledger.maybe_heartbeat(inflight=len(futures))

    def _await_inline(self, futures: dict) -> None:
        """Inline-executor counterpart of the FIRST_COMPLETED wait."""
        # drop speculation for points whose stopping rule already fired:
        # lazy futures cancel unrun, so nothing is decoded or committed
        # (their dispatch already spent the batch budget — not refunded)
        for fut in list(futures):
            state, index = futures[fut]
            if state.finished and fut.cancel():
                del futures[fut]
                state.inflight.pop(index, None)
        if not futures:
            return
        fut = next(iter(futures))  # earliest submitted = index order
        state, index = futures.pop(fut)
        fut.force()
        try:
            result = fut.result()
        except BaseException:
            state.inflight.pop(index, None)
            raise
        self._receive(state, index, result)

    def _abandon(self, futures: dict) -> None:
        """Cancel or drain orphaned futures after a scheduler exception.

        Never-started futures are cancelled; already-running ones are waited
        for and their results committed to the commit-ahead log (resume
        replays them), with secondary failures swallowed — the original
        exception is the one the caller sees.
        """
        for fut in list(futures):
            state, index = futures.pop(fut)
            if fut.cancel():
                state.inflight.pop(index, None)
                continue
            try:
                self._receive(state, index, fut.result())
            except BaseException:
                state.inflight.pop(index, None)

    def _dispatch_point(self, state: _ConcurrentPoint, depth: int, futures: dict) -> None:
        """Fill one point's speculation window (replays count for free)."""
        spec = self.spec
        record = state.record
        while not state.finished and state.unapplied < depth:
            # never *speculate* past the shot cap.  An unconverged point with
            # nothing unapplied is below the cap, so its in-order batch is
            # always dispatched
            if record["shots"] + state.unapplied * spec.batch_shots >= spec.max_shots:
                return
            index = state.next_index
            if index in state.committed:
                # serve from the commit-ahead log instead of decoding
                state.committed.discard(index)
                br = self._committed_batch(
                    state.key, index, len(record["failures"])
                )
                if br is not None:
                    state.pending[index] = (br, True, None)
                    state.next_index += 1
                    continue
            if self.budget.exhausted:
                return
            self.budget.spend()
            with obs.span(
                "sweep.dispatch", lambda: {"index": index, "shots": spec.batch_shots}
            ):
                fut = submit_task(
                    self._pool,
                    self._make_task(state.pt, state.key, state.pipeline, index),
                )
            obs.count("sweep.batches_dispatched")
            state.inflight[index] = fut
            futures[fut] = (state, index)
            state.next_index += 1

    def _receive(self, state: _ConcurrentPoint, index: int, result) -> None:
        """Commit one completed batch; queue it for in-order application."""
        br = self._batch_record_of(result)
        self.store.put_batch(state.key, index, br)
        state.inflight.pop(index, None)
        worker = result.decode_stats.get("worker")
        if state.finished:
            # speculative overshoot: the stopping rule fired while this
            # batch was decoding; committed above, excluded from estimates
            self.report.batches_overshoot += 1
            obs.event("sweep.overshoot", lambda: {"index": index})
            obs.count("sweep.batches_overshoot")
            self.ledger.batch(
                state.key, index, int(br["shots"]), "overshoot",
                worker=worker,
            )
        else:
            state.pending[index] = (br, False, worker)

    def _drain(self, active: list[_ConcurrentPoint]) -> bool:
        """Apply in-order pending batches; finish converged points."""
        spec = self.spec
        progressed = False
        for state in active:
            if state.finished:
                continue
            record = state.record
            applied = False
            while True:
                done, reason = _converged(record["failures"], record["shots"], spec)
                if done:
                    self._finalize_point(state.key, record, reason)
                    for idx, (pbr, replayed, pworker) in state.pending.items():
                        if not replayed:
                            self.report.batches_overshoot += 1
                            obs.count("sweep.batches_overshoot")
                            self.ledger.batch(
                                state.key, idx, int(pbr["shots"]), "overshoot",
                                worker=pworker,
                            )
                    state.pending.clear()
                    state.finished = True
                    progressed = True
                    break
                index = record["batches"]
                entry = state.pending.pop(index, None)
                if entry is None:
                    break  # next batch still in flight (or not dispatched)
                br, replayed, worker = entry
                self._apply_batch(record, br, replayed=replayed)
                if replayed:
                    self.report.batches_replayed += 1
                    self.ledger.batch(state.key, index, int(br["shots"]), "replayed")
                else:
                    state.new_shots += int(br["shots"])
                    state.new_batches += 1
                    self.ledger.batch(
                        state.key, index, int(br["shots"]), "decoded",
                        worker=worker,
                    )
                applied = True
                progressed = True
            if applied and not state.finished:
                self._checkpoint(state.key, record)
        return progressed

    def _outcome(self, pt, key, record, *, new_shots: int = 0) -> PointOutcome:
        outcome = PointOutcome(point=pt, key=key, record=record, new_shots=new_shots)
        self.report.outcomes.append(outcome)
        return outcome


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    *,
    resume: bool = True,
    workers: int = 1,
    speculate: int = 0,
    batch_limit: int | None = None,
    progress=None,
    ledger=None,
) -> SweepReport:
    """Run (or continue) every point of ``spec`` against ``store``.

    ``resume=False`` discards partial (non-converged) records and recomputes
    them from batch 0 — the result is bit-identical either way, resuming just
    skips the already-decoded prefix.  ``workers`` > 1 decodes batches on a
    pool of decode threads shared by *all* points
    (:meth:`_SweepRun.run_concurrent`); ``speculate`` >= 1 keeps up to that
    many batches in flight per point while the stopping rule is still
    evaluating earlier ones (0 means one per worker).  Estimates and stored
    records are bit-identical for any ``(workers, speculate)``;
    completed-but-excluded batches land in the store's commit-ahead log,
    where later passes replay them for free.  With ``workers <= 1`` the
    scheduler decodes on the calling thread through the inline executor and
    cancels unneeded speculation lazily, so it decodes
    exactly the batches the estimates need.  Every batch is exactly
    ``spec.batch_shots`` shots, and points are admitted largest estimated
    remaining work first (outcomes are still emitted in sweep order).
    ``batch_limit`` caps how many *new* batches this invocation decodes (the
    interruption hook used by tests and the microbenchmark); when the cap is
    hit the partial state is checkpointed and ``report.interrupted`` is set.

    ``ledger`` controls the run ledger (:mod:`repro.obs.ledger`): ``None``
    defers to ``REPRO_RUN_LEDGER`` (default on), ``False`` disables it,
    ``True`` forces it, and a :class:`~repro.obs.ledger.RunWriter` instance
    is used as-is (tests pin heartbeat pacing this way).  The ledger is pure
    observation — records and estimates are bit-identical with it on or off.
    """
    writer = None
    if ledger is None:
        ledger = _oledger.ledger_env_enabled()
    if isinstance(ledger, _oledger.RunWriter):
        writer = ledger
    elif ledger:
        writer = _oledger.RunWriter(
            store.runs_root,
            _oledger.sweep_manifest(spec, workers=workers, speculate=speculate),
        )
    run = _SweepRun(
        spec,
        store,
        resume=resume,
        workers=workers,
        speculate=speculate,
        batch_limit=batch_limit,
        progress=progress,
        ledger=writer,
    )
    if writer is not None:
        run.report.run_id = writer.run_id
    status = "error"
    try:
        run.run_concurrent(spec.points())
        status = "interrupted" if run.report.interrupted else "ok"
    finally:
        run.close()
        if writer is not None:
            rec = obs.active()
            metrics = obs.metrics_snapshot(rec) if rec is not None else None
            summary = run.report.summary() if status != "error" else None
            writer.finish(status, summary=summary, metrics=metrics)
    return run.report


def plan_sweep(
    spec: SweepSpec, store: ResultStore, *, resume: bool = True
) -> dict:
    """Estimate a sweep's remaining work without decoding anything.

    The engine behind ``repro sweep run --dry-run``: for every point of the
    expanded grid, report batches already applied, commit-ahead batches
    waiting to replay, batches still to decode, and the estimated new shots —
    all through the same cost model the scheduler's admission order and
    ``sweep watch`` use
    (:func:`repro.obs.ledger.estimate_point_cost`).  Purely read-only: no
    store write, no circuit analysis, no decode.  Estimates are the
    shot-cap worst case — ``target_rse`` may stop a point earlier, and a
    missing point that would resolve ``not_applicable`` (which only circuit
    analysis can tell) is costed as a full run.
    """
    run = _SweepRun(spec, store, resume=resume, workers=1, speculate=0)
    try:
        points = [run._plan_point(pt) for pt in spec.points()]
    finally:
        run.close()
    return {
        "sweep": spec.name,
        "points": points,
        "totals": {
            "points": len(points),
            "decode": sum(1 for p in points if p["batches_remaining"] > 0),
            "batches_remaining": sum(p["batches_remaining"] for p in points),
            "batches_ahead": sum(p["batches_ahead"] for p in points),
            "est_new_shots": sum(p["est_new_shots"] for p in points),
        },
    }


def export_records(spec: SweepSpec, store: ResultStore) -> list[dict]:
    """Stored records of a sweep in the benchmark-harness JSON row format.

    One row per point of the expanded grid, in sweep order, shaped like the
    per-figure benchmark outputs under ``benchmarks/results/``: flat
    configuration columns plus ``ler`` / ``wilson`` series derived from the
    stored failure counts.  Decodes nothing — points never run are emitted
    with ``status: "missing"`` so the harness can tell a partial sweep from
    an empty one.  The CLI surface is ``repro sweep export``.
    """
    rows = []
    for pt in spec.points():
        key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
        record = store.get(key)
        cfg = pt.config
        row = {
            "sweep": spec.name,
            "key": key,
            "distance": cfg.distance,
            "tau_ns": cfg.tau_ns,
            "policy": pt.policy_name,
            "policy_kwargs": dict(pt.policy_kwargs),
            "p": cfg.p,
            "hardware": cfg.hardware.name,
            "decoder": pt.decoder,
            "seed": spec.seed,
            "batch_shots": spec.batch_shots,
        }
        if record is None:
            row["status"] = "missing"
            rows.append(row)
            continue
        row["status"] = record.get("status", "ok")
        if row["status"] == "not_applicable":
            row["detail"] = record.get("detail")
            rows.append(row)
            continue
        estimates = point_record_estimates(record)
        row.update(
            shots=int(record.get("shots", 0)),
            batches=int(record.get("batches", 0)),
            converged=bool(record.get("converged", False)),
            stop_reason=record.get("stop_reason"),
            failures=[int(f) for f in record.get("failures", ())],
            ler=[e.rate for e in estimates],
            wilson=[list(wilson_interval(e.successes, e.trials)) for e in estimates],
            plan_summary=dict(record.get("plan_summary", {})),
        )
        rows.append(row)
    return rows

