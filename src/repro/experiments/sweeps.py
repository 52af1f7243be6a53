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
  worker count (batches decoded past the stopping point are counted as
  overshoot and discarded; they are never accumulated).  Every batch is
  exactly ``batch_shots`` shots.
* **One scheduler** — every sweep, including the ones figure builds
  declare, runs through :meth:`_SweepRun.run_concurrent`: one executor is
  shared by *all* points of the sweep, a pool interleaves points, and while
  the stopping rule evaluates batch *k* of a point, batches ``k+1 ..
  k+workers-1`` are already decoding (one batch in flight inline).  Decoded
  batches wait in memory and are *applied* strictly in batch-index order,
  so estimates and stored records are bit-identical for any worker count —
  equal to decoding the batches one by one in index order.  The point
  checkpoint (the applied prefix) is the only durable state: a crash
  re-decodes at most the ``workers - 1`` batches that were decoded but not
  applied, deterministically in ``(seed, point key, batch index)``.  Points
  are admitted largest estimated remaining work first; outcomes are
  emitted in sweep order.
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

    This is the view the parity contract quantifies over: inline and
    threaded runs must produce *identical* parity views for every point,
    equal to an in-order batch-by-batch decode (tests/test_speculation.py
    and the scheduler microbenchmark both compare through this helper).
    """
    return {
        k: v
        for k, v in record.items()
        if k not in EXECUTION_DEPENDENT_RECORD_FIELDS
    }

#: decode-stat counters accumulated batch-by-batch into stored records
#: (:meth:`~repro.experiments.ler.LerResult.batch_stats`)
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


def _coerce_hardware(value) -> HardwareConfig:
    """A preset name or a dict of :class:`HardwareConfig` fields."""
    if isinstance(value, str):
        if value.lower() not in PRESETS:
            raise ValueError(
                f"unknown hardware preset {value!r}; known: {', '.join(sorted(PRESETS))}"
            )
        return PRESETS[value.lower()]
    if isinstance(value, dict):
        return HardwareConfig(**value)
    raise TypeError(f"expected a preset name or an object, got {value!r}")


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
        """A spec from its JSON form; ``ValueError`` names what is wrong."""
        if not isinstance(data, dict):
            raise ValueError(f"a sweep spec is a JSON object, got {type(data).__name__}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown SweepSpec field(s): {', '.join(unknown)}")
        missing = [
            f.name
            for f in fields
            if f.name not in data
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ValueError(f"missing SweepSpec field(s): {', '.join(missing)}")
        data = dict(data)
        coercers = {
            "hardware": _coerce_hardware,
            "distances": lambda v: tuple(int(d) for d in v),
            "taus_ns": lambda v: tuple(float(t) for t in v),
            "policies": lambda v: tuple(PolicySpec.coerce(p) for p in v),
        }
        for name, coerce in coercers.items():
            try:
                data[name] = coerce(data[name])
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(f"bad SweepSpec field {name!r}: {exc}") from None
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

        The decoder enters by name; the decode path stays keyless because
        the C and scalar paths are bit-identical.
        """
        return point_key(
            self.config,
            self.policy_name,
            self.policy_kwargs,
            decoder=self.decoder,
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
    #: run-ledger id of this invocation (None when the ledger is disabled)
    run_id: str | None = None
    #: batches decoded by this pass but excluded from the estimates (the
    #: stopping rule fired first); they are discarded
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
    has been *applied* to its record.  Indices are dispatched contiguously
    from the applied prefix and applied strictly in index order, so however
    futures complete, the record evolves identically.
    """

    def __init__(self, pt, key, record, pipeline):
        self.pt = pt
        self.key = key
        self.record = record
        #: the point's analyzed pipeline, handed to every batch task
        self.pipeline = pipeline
        #: position in the sweep grid (emission order; admission may differ)
        self.pos = 0
        #: index -> decoded batch result, completed but not yet applied
        self.pending: dict = {}
        #: next index to dispatch (>= record["batches"])
        self.next_index = record["batches"]
        self.new_shots = 0
        self.new_batches = 0
        self.finished = False

    @property
    def unapplied(self) -> int:
        """Batches dispatched (in flight or pending) but not yet applied."""
        return self.next_index - self.record["batches"]


class _SweepRun:
    """Execution state shared across the points of one sweep pass."""

    def __init__(
        self,
        spec: SweepSpec,
        store: ResultStore,
        *,
        resume: bool = True,
        workers: int = 1,
        batch_limit: int | None = None,
        progress=None,
        ledger=None,
    ):
        self.spec = spec
        self.store = store
        self.resume = resume
        #: ``workers <= 1`` selects the inline executor: batch tasks run on
        #: the calling thread through the same submit_task interface
        #: (``--workers 0`` is the CLI's explicit spelling)
        self.inline = workers <= 1
        #: also each point's in-flight depth: one batch per decode thread
        self.workers = max(1, workers)
        self.budget = _BatchBudget(batch_limit)
        self.progress = progress or (lambda msg: None)
        #: run-ledger writer — pure observation (events, heartbeats); a
        #: no-op writer when the ledger is off, so call sites stay branchless
        self.ledger = ledger if ledger is not None else _oledger.NULL_RUN_WRITER
        self.report = SweepReport(spec=spec)
        #: one executor for the whole run (lazily created): a pool of
        #: ``workers`` decode threads, or the inline executor when
        #: ``workers <= 1``
        self._pool = None

    def close(self) -> None:
        """Shut down the run's executor (if created).

        After a scheduler exception, batches not yet started are cancelled
        and running ones are waited for; their results are discarded.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
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

    def _apply_batch(self, record: dict, result) -> None:
        """Fold one decoded batch into the point record, in index order.

        This is the *only* way shots enter an estimate, so inline and
        threaded runs accumulate identically.
        """
        with obs.span("sweep.apply"):
            record["failures"] = [
                a + int(e.successes)
                for a, e in zip(record["failures"], result.estimates)
            ]
            record["shots"] += int(result.shots)
            record["batches"] += 1
            for k, v in result.batch_stats().items():
                record["decode_stats"][k] = record["decode_stats"].get(k, 0) + v
        obs.count("sweep.batches_applied")

    def _checkpoint(self, key: str, record: dict) -> None:
        record["updated_at"] = _wallclock()
        self.store.put(key, record)
        self.progress(
            f"{self.spec.name}: {key[:12]} shots={record['shots']} "
            f"failures={record['failures']}"
        )

    def _finalize_point(self, key: str, record: dict, reason: str | None) -> None:
        """Persist a converged point."""
        record.update(converged=True, stop_reason=reason, updated_at=_wallclock())
        self.store.put(key, record)
        self.ledger.point_converged(
            key, stop_reason=reason, shots=record["shots"], batches=record["batches"]
        )

    # -- the scheduler -----------------------------------------------------

    def run_concurrent(self, points: list[SweepPoint]) -> None:
        """Run every point on one shared executor, points interleaved.

        While the stopping rule is still digesting batch *k* of a point,
        batches ``k+1 .. k+workers-1`` of that point (and pending batches of
        every other point) are already decoding, so a pooled single-point
        run keeps every worker busy.  Completed batches wait in
        ``_ConcurrentPoint.pending`` and are *applied* to point records
        strictly in batch-index order through :meth:`_apply_batch` /
        :func:`_converged`, so estimates, shot counts and stored records
        equal an in-order batch-by-batch decode for any worker count.
        Batches that complete after their point's stopping rule fired are
        counted as overshoot and discarded.

        With ``workers > 1`` the executor is a pool of decode threads; with
        ``workers <= 1`` it is the :class:`InlineExecutor`, one point and one
        batch at a time, decoded as it is dispatched: the inline scheduler
        decodes exactly the in-order batch set and finishes one point before
        it admits the next.

        Points are admitted by estimated remaining decode work, biggest
        first, so the long-tail point starts earliest; application stays
        per-point in-order, so admission order cannot change records, and
        outcomes are emitted in sweep order.

        Worker exceptions propagate to the caller; the ``finally`` block
        checkpoints every unfinished point's applied prefix, so a later
        resume re-decodes only the batches that were never applied.
        """
        # points in flight at once: a thread pool also keeps ``workers``
        # points' analyses ahead of decoding; inline there is nothing to
        # overlap
        capacity = 1 if self.inline else 2 * self.workers
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
                    state = _ConcurrentPoint(pt, key, record, pipe)
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
                    self._dispatch_point(state, futures)
                for state in active:
                    self._dispatch_point(state, futures)
                if self._drain(active):
                    active = [s for s in active if not s.finished]
                    continue  # applied batches free in-flight slots
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

            # wait out stray futures of finished points (pool only): they
            # count as overshoot and are never applied
            while futures:
                self._await_some(futures)
        finally:
            # a worker exception lands here with futures still in flight
            # (close() cancels or waits for them): checkpoint the applied
            # prefix of every unfinished point so a resume continues from it
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

        The scheduler's admission key: a store peek through the shared cost
        model
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
            "batches_remaining": 0,
            "est_new_shots": 0,
        }
        if record is not None and record.get("status") == "not_applicable":
            row["status"] = "not_applicable"
            return row
        if record is not None and self._restarts(record):
            record = None  # recomputed from batch 0
            row["status"] = "restart"
        if record is not None:
            row["shots"] = int(record.get("shots", 0))
            row["batches_applied"] = int(record.get("batches", 0))
            done, _ = _converged(record["failures"], record["shots"], spec)
            if done:
                row["status"] = "converged"
                return row
            row["status"] = "partial"
        cost = _oledger.estimate_point_cost(
            row["shots"], spec.max_shots, spec.batch_shots
        )
        row["batches_remaining"] = cost["batches_remaining"]
        row["est_new_shots"] = cost["new_shots"]
        return row

    def _await_some(self, futures: dict) -> None:
        """Block for at least one in-flight batch and receive all completed.

        Thread mode waits on FIRST_COMPLETED.  Inline mode holds one
        finished future.  A failed batch raises here.
        """
        if self.inline:
            done = [next(iter(futures))]
        else:
            with obs.span("sweep.idle", lambda: {"inflight": len(futures)}):
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
        for fut in done:
            state, index = futures.pop(fut)
            self._receive(state, index, fut.result())
        self.ledger.maybe_heartbeat(inflight=len(futures))

    def _dispatch_point(self, state: _ConcurrentPoint, futures: dict) -> None:
        """Fill one point's in-flight window of ``workers`` batches."""
        spec = self.spec
        while not state.finished and state.unapplied < self.workers:
            # never decode past the shot cap.  An unconverged point with
            # nothing unapplied is below the cap, so its in-order batch is
            # always dispatched
            if state.record["shots"] + state.unapplied * spec.batch_shots >= spec.max_shots:
                return
            if self.budget.exhausted:
                return
            self.budget.spend()
            index = state.next_index
            with obs.span(
                "sweep.dispatch", lambda: {"index": index, "shots": spec.batch_shots}
            ):
                fut = submit_task(
                    self._pool,
                    self._make_task(state.pt, state.key, state.pipeline, index),
                )
            obs.count("sweep.batches_dispatched")
            futures[fut] = (state, index)
            state.next_index += 1

    def _receive(self, state: _ConcurrentPoint, index: int, result) -> None:
        """Queue one decoded batch for in-order application."""
        if state.finished:
            # the stopping rule fired while this batch was decoding
            self._overshoot(state, index, result)
        else:
            state.pending[index] = result

    def _overshoot(self, state: _ConcurrentPoint, index: int, result) -> None:
        """Count one decoded batch the estimates exclude; it is discarded."""
        self.report.batches_overshoot += 1
        obs.event("sweep.overshoot", lambda: {"index": index})
        obs.count("sweep.batches_overshoot")
        self.ledger.batch(
            state.key, index, int(result.shots), "overshoot",
            worker=result.decode_stats.get("worker"),
        )

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
                    for index, result in state.pending.items():
                        self._overshoot(state, index, result)
                    state.pending.clear()
                    state.finished = True
                    progressed = True
                    break
                index = record["batches"]
                result = state.pending.pop(index, None)
                if result is None:
                    break  # next batch still in flight (or not dispatched)
                self._apply_batch(record, result)
                state.new_shots += int(result.shots)
                state.new_batches += 1
                self.ledger.batch(
                    state.key, index, int(result.shots), "decoded",
                    worker=result.decode_stats.get("worker"),
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
    (:meth:`_SweepRun.run_concurrent`), with up to ``workers`` batches per
    point in flight while the stopping rule is still evaluating earlier
    ones; batches decoded past the stopping point are discarded.  With
    ``workers <= 1`` the scheduler decodes on the calling thread through the
    inline executor, one batch at a time, so it decodes exactly the batches
    the estimates need.  Estimates and stored records are bit-identical for
    any ``workers``.  Every batch is exactly ``spec.batch_shots`` shots, and
    points are admitted largest estimated remaining work first (outcomes are
    still emitted in sweep order).  ``speculate`` accepts only 0 and 1,
    which change nothing; the in-flight depth is set by ``workers``.
    ``batch_limit`` caps how many *new* batches this invocation decodes (the
    interruption hook used by tests and the microbenchmark); when the cap is
    hit the partial state is checkpointed and ``report.interrupted`` is set.

    ``ledger`` controls the run ledger (:mod:`repro.obs.ledger`): ``None``
    defers to ``REPRO_RUN_LEDGER`` (default on), ``False`` disables it,
    ``True`` forces it, and a :class:`~repro.obs.ledger.RunWriter` instance
    is used as-is (tests pin heartbeat pacing this way).  The ledger is pure
    observation — records and estimates are bit-identical with it on or off.
    """
    if speculate not in (0, 1):
        raise ValueError(
            f"speculate={speculate} is not supported: each point keeps "
            "`workers` batches in flight (one inline); set workers instead"
        )
    writer = None
    if ledger is None:
        ledger = _oledger.ledger_env_enabled()
    if isinstance(ledger, _oledger.RunWriter):
        writer = ledger
    elif ledger:
        writer = _oledger.RunWriter(
            store.runs_root,
            _oledger.sweep_manifest(spec, workers=workers),
        )
    run = _SweepRun(
        spec,
        store,
        resume=resume,
        workers=workers,
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
    expanded grid, report batches already applied, batches still to decode,
    and the estimated new shots — all through the same cost model the scheduler's admission order and
    ``sweep watch`` use
    (:func:`repro.obs.ledger.estimate_point_cost`).  Purely read-only: no
    store write, no circuit analysis, no decode.  Estimates are the
    shot-cap worst case — ``target_rse`` may stop a point earlier, and a
    missing point that would resolve ``not_applicable`` (which only circuit
    analysis can tell) is costed as a full run.
    """
    run = _SweepRun(spec, store, resume=resume, workers=1)
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

