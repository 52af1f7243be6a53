"""Multiprocess sweep execution and sharded single-configuration decoding.

The paper's artifact runs each configuration's shots as batches on a
128-process pool; this module reproduces that model at two granularities:

* **Across configurations** — :func:`run_sweep_parallel` executes a list of
  :class:`SweepTask` points (one per configuration/batch) on a
  ``ProcessPoolExecutor``.  Each worker builds its own pipeline (detector
  error models are not shareable across processes), so parallelism pays off
  when sampling/decoding dominates circuit analysis — the large-shot-count
  regime.
* **Within one configuration** — :func:`run_sharded_ler` splits a single
  configuration's shots into a fixed number of shards, each seeded with a
  ``np.random.SeedSequence.spawn`` child stream, runs the shards on the pool
  and pools the failure counts with :func:`merge_results`.  Because the shard
  layout depends only on ``(seed, num_shards)`` — never on the pool size —
  the merged result is bit-identical for any ``max_workers``, including 1.

Workers decode through the batch engine (:mod:`repro.decoders.batch`) with
syndrome dedup, so a shard's cost scales with its *distinct* syndromes.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass

from .. import obs
from .._util import spawn_seeds
from ..core.policies import _BasePolicy, make_policy, policy_fields
from . import ler as _ler
from .ler import (
    LerResult,
    PipelinePayload,
    SurgeryLerConfig,
    pipeline_payload,
    run_surgery_ler,
)
from .stats import RateEstimate

__all__ = [
    "SweepTask",
    "run_sweep_parallel",
    "run_sharded_ler",
    "shard_tasks",
    "merge_results",
    "warm_worker",
    "install_payload",
    "reset_warm_state",
    "execute_tasks",
    "submit_task",
    "absorb_result_spans",
    "pool_executor",
    "InlineFuture",
    "InlineExecutor",
    "DEFAULT_NUM_SHARDS",
]


def pool_executor(max_workers: int | None = None, **kwargs) -> ProcessPoolExecutor:
    """The process pool every sweep path creates its workers on.

    Honors ``REPRO_MP_START_METHOD`` (``fork``/``spawn``/``forkserver``) so
    the spawn path — the only start method on some platforms, and the one
    that exercises worker self-activation of :mod:`repro.obs` — is testable
    everywhere; unset defers to the platform default.  Results are
    bit-identical across start methods (workers only ever receive pickled
    tasks and payloads).
    """
    method = os.environ.get("REPRO_MP_START_METHOD")
    if method:
        kwargs.setdefault("mp_context", multiprocessing.get_context(method))
    return ProcessPoolExecutor(max_workers=max_workers, **kwargs)


class InlineFuture(Future):
    """A lazily evaluated in-process future.

    ``submit`` on an :class:`InlineExecutor` returns one of these without
    running anything; the scheduler calls :meth:`force` when it actually
    needs the result.  Laziness is what makes single-core speculation free:
    a speculative batch whose point converges before it is forced can still
    be *cancelled*, so the inline scheduler decodes exactly the batch set
    the sequential scheduler would.
    """

    def __init__(self, fn, args):
        super().__init__()
        self._fn = fn
        self._args = args

    def force(self) -> None:
        """Run the deferred call now (no-op if done or cancelled)."""
        if self.done() or not self.set_running_or_notify_cancel():
            return
        try:
            result = self._fn(*self._args)
        except BaseException as exc:
            self.set_exception(exc)
        else:
            self.set_result(result)


class InlineExecutor:
    """A ``submit``-shaped executor that runs tasks in this process, lazily.

    The single-core counterpart of :func:`pool_executor`: schedulers built
    on :func:`submit_task` work unchanged, but tasks skip pickling and IPC
    entirely — they execute in-process (against the module-global warm
    pipelines, like the serial path of :func:`run_sweep_parallel`) when
    their :class:`InlineFuture` is forced.
    """

    def submit(self, fn, /, *args, **kwargs):
        """Defer ``fn(*args)`` into a lazy :class:`InlineFuture`."""
        if kwargs:
            raise TypeError("InlineExecutor.submit takes positional args only")
        return InlineFuture(fn, args)

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        """Nothing to tear down (matches the ProcessPoolExecutor surface)."""


#: worker-process cache: pipeline key -> decode-ready pipeline, installed by
#: :func:`warm_worker` (pool initializer) so shard workers skip circuit
#: analysis entirely when the coordinator hands them a serialized DEM;
#: bounded like the in-process pipeline LRU
_WARM_PIPELINES: "OrderedDict[tuple, object]" = OrderedDict()


def install_payload(payload: PipelinePayload) -> None:
    """Install one payload into this process's warm-pipeline LRU.

    The pickle-free sibling of :func:`warm_worker`: coordinators running
    tasks in-process (the serial path of :func:`run_sweep_parallel`, the
    inline executor of the sweep schedulers) install the payload object
    directly, so a task whose ``pipeline_key`` matches skips circuit
    analysis without any serialization round-trip.  When the payload was
    packaged from this process's own pipeline LRU (the DEM is the very same
    object), that pipeline's graph, sampler and decoders are reused instead
    of being rebuilt; an unpickled payload never matches.
    """
    if payload.key not in _WARM_PIPELINES:
        cached = _ler._PIPELINE_CACHE.get(payload.key)
        if cached is not None and cached.dem is payload.dem:
            pipe = copy.copy(cached)
            pipe.payload_backend = payload.backend
        else:
            pipe = _ler._Pipeline.from_payload(payload)
        _WARM_PIPELINES[payload.key] = pipe
    _WARM_PIPELINES.move_to_end(payload.key)
    limit = max(1, _ler.PIPELINE_CACHE_SIZE)
    while len(_WARM_PIPELINES) > limit:
        _WARM_PIPELINES.popitem(last=False)


#: backwards-compatible private alias (pre-inline-executor name)
_install_payload = install_payload


def warm_worker(payload_blobs: tuple[bytes, ...]) -> None:
    """Process-pool initializer: pre-install pipelines from pickled payloads.

    Runs once per worker process.  Each blob is a pickled
    :class:`~repro.experiments.ler.PipelinePayload`; rebuilding from it
    skips surgery synthesis and DEM extraction, so a warmed worker performs
    zero circuit analyses no matter how many shards it decodes.
    """
    for blob in payload_blobs:
        _install_payload(pickle.loads(blob))


def reset_warm_state() -> None:
    """Drop warm pipelines (tests, memory pressure)."""
    _WARM_PIPELINES.clear()

#: default shard count for one configuration: fixed (never derived from the
#: worker count or host CPU topology) so a seeded result is reproducible on
#: any machine; sized to keep a few dozen workers busy, which costs little
#: because pool processes cache the analyzed pipeline across their shards
DEFAULT_NUM_SHARDS = 32


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: a configuration plus its shot batch and seed.

    ``seed`` may be an int, ``None``, or a spawned ``SeedSequence`` /
    ``Generator`` (anything :func:`repro._util.resolve_rng` accepts).
    """

    config: SurgeryLerConfig
    policy_name: str
    policy_kwargs: tuple
    shots: int
    seed: object
    decoder: str = "unionfind"
    dedup: bool | None = None
    batch_size: int = 65536
    #: decode-kernel backend; None defers to the warm payload's backend and
    #: then the worker's own DECODE_DEFAULTS
    backend: str | None = None
    #: when set, the executing worker looks this key up in its warm-pipeline
    #: cache (see :func:`warm_worker`) instead of re-analyzing the circuit
    pipeline_key: tuple | None = None
    #: pickled PipelinePayload for lazy warming: lets a long-lived pool (one
    #: per sweep run, spanning many configurations) install the pipeline on
    #: first contact instead of requiring a pool-initializer per payload
    payload_blob: bytes | None = None
    #: path to a pickled PipelinePayload spool file for one-shot shipping:
    #: like ``payload_blob`` but the serialized DEM crosses the IPC boundary
    #: once per (configuration, worker) — each worker reads and installs the
    #: file on first contact with ``pipeline_key`` — instead of riding along
    #: with every batch submission.  ``payload_blob`` wins when both are set.
    payload_path: str | None = None


def _run_task(task: SweepTask) -> LerResult:
    policy = make_policy(task.policy_name, **dict(task.policy_kwargs))
    pipeline = None
    if task.pipeline_key is not None:
        if task.pipeline_key not in _WARM_PIPELINES:
            if task.payload_blob is not None:
                warm_worker((task.payload_blob,))
            elif task.payload_path is not None:
                with open(task.payload_path, "rb") as f:
                    warm_worker((f.read(),))
        pipeline = _WARM_PIPELINES.get(task.pipeline_key)
    # shards must agree on the decode backend: an explicit task backend wins,
    # then the backend the coordinator stamped into the warm payload
    backend = task.backend
    if backend is None and pipeline is not None:
        backend = getattr(pipeline, "payload_backend", None)
    analyses_before = _ler.PIPELINE_ANALYSES
    # decode_workers=1: a worker never re-shards, whatever the process-wide
    # DECODE_DEFAULTS say.  obs.collect drains the spans this task emits so
    # they travel back on the result (and are absorbed exactly once by the
    # coordinator, whether the task ran pooled or in-process).
    with obs.collect() as spans:
        result = run_surgery_ler(
            task.config,
            policy,
            task.shots,
            task.seed,
            decoder=task.decoder,
            dedup=task.dedup,
            batch_size=task.batch_size,
            decode_workers=1,
            backend=backend,
            pipeline=pipeline,
        )
    # analyses this task actually triggered in this process (0 when served
    # from the warm handoff or the in-process pipeline LRU)
    result.decode_stats["pipeline_analyses"] = _ler.PIPELINE_ANALYSES - analyses_before
    # which process decoded this batch — run-ledger provenance only.  Not in
    # BATCH_STAT_KEYS, so batch_stats() drops it before anything is stored.
    result.decode_stats["worker_pid"] = os.getpid()
    if spans.events:
        result.obs_spans = spans.events
    return result


def absorb_result_spans(results) -> None:
    """Merge worker-recorded span events into this process's recorder.

    Called wherever task results re-enter the coordinator
    (:func:`execute_tasks`, :func:`run_sweep_parallel`, and the future
    path of the speculative scheduler).  Spans are cleared off the result
    after absorption, so a result flowing through two layers (pool map ->
    shard merge) is only counted once.
    """
    for result in results:
        events = getattr(result, "obs_spans", None)
        if events:
            obs.absorb(events)
            result.obs_spans = []


def submit_task(pool: ProcessPoolExecutor, task: SweepTask):
    """Dispatch one task on a caller-owned executor, without blocking.

    The non-blocking sibling of :func:`execute_tasks`: returns the
    ``concurrent.futures.Future`` immediately so a scheduler can keep
    dispatching (speculative batches, other sweep points) while this task
    decodes.  The worker warms itself from ``task.payload_blob`` /
    ``task.payload_path`` on first contact exactly as on the blocking path.
    ``pool`` may be a process pool or an :class:`InlineExecutor` — the
    latter returns a lazy :class:`InlineFuture` the scheduler forces when
    it needs the result.
    """
    return pool.submit(_run_task, task)


def execute_tasks(pool: ProcessPoolExecutor, tasks: list[SweepTask]) -> list[LerResult]:
    """Run tasks on a caller-owned executor (e.g. one pool per sweep run).

    Workers warm themselves lazily from each task's ``payload_blob`` on
    first contact with a configuration, so a single long-lived pool keeps
    its pipelines alive across every batch, convergence round and sweep
    point it serves.
    """
    results = list(pool.map(_run_task, tasks))
    absorb_result_spans(results)
    return results


def run_sweep_parallel(
    tasks: list[SweepTask],
    *,
    max_workers: int | None = None,
    payloads: "list[PipelinePayload] | None" = None,
) -> list[LerResult]:
    """Execute tasks across a process pool; order follows the input list.

    ``payloads`` warms every worker with pre-analyzed pipelines
    (:func:`warm_worker`); tasks whose ``pipeline_key`` matches a payload
    then skip circuit analysis.  On the serial path the payloads are
    installed in-process, without the pickle round-trip.
    """
    if not tasks:
        return []
    if max_workers == 1 or len(tasks) == 1:
        for payload in payloads or []:
            install_payload(payload)
        results = [_run_task(t) for t in tasks]
    else:
        kwargs = {}
        if payloads:
            blobs = tuple(pickle.dumps(p) for p in payloads)
            kwargs = {"initializer": warm_worker, "initargs": (blobs,)}
        with pool_executor(max_workers, **kwargs) as pool:
            results = list(pool.map(_run_task, tasks))
    absorb_result_spans(results)
    return results


def shard_tasks(
    config: SurgeryLerConfig,
    policy_name: str,
    policy_kwargs: tuple,
    shots: int,
    seed,
    *,
    num_shards: int,
    decoder: str = "unionfind",
    dedup: bool | None = None,
    batch_size: int = 65536,
    backend: str | None = None,
    pipeline_key: tuple | None = None,
) -> list[SweepTask]:
    """Split one configuration's shots into independently seeded shard tasks.

    Shard sizes differ by at most one shot; each shard gets its own
    ``SeedSequence.spawn`` child, so the task list is a pure function of
    ``(shots, seed, num_shards)``.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    num_shards = max(1, min(num_shards, shots or 1))
    seeds = spawn_seeds(seed, num_shards)
    base, extra = divmod(shots, num_shards)
    tasks = []
    for i in range(num_shards):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        tasks.append(
            SweepTask(
                config=config,
                policy_name=policy_name,
                policy_kwargs=policy_kwargs,
                shots=size,
                seed=seeds[i],
                decoder=decoder,
                dedup=dedup,
                batch_size=batch_size,
                backend=backend,
                pipeline_key=pipeline_key,
            )
        )
    return tasks


def run_sharded_ler(
    config: SurgeryLerConfig,
    policy: _BasePolicy,
    shots: int,
    rng=None,
    *,
    num_shards: int = DEFAULT_NUM_SHARDS,
    max_workers: int | None = None,
    decoder: str = "unionfind",
    dedup: bool | None = None,
    batch_size: int = 65536,
    backend: str | None = None,
    payload: "PipelinePayload | None | bool" = None,
) -> LerResult:
    """Decode one configuration's shots sharded across a process pool.

    The result is bit-identical for any ``max_workers`` given the same
    ``rng`` and ``num_shards`` (the shard seeds are spawned up front and the
    pooled counts are order-independent sums).  ``rng`` should be an int
    seed, ``SeedSequence`` or ``Generator``; ``None`` draws fresh entropy.

    ``payload`` hands workers a pre-analyzed pipeline so circuit analysis
    runs once (in this process) instead of once per worker: pass a
    :class:`~repro.experiments.ler.PipelinePayload`, or ``True`` to build
    one here from the pipeline cache.  Without it each worker falls back to
    analyzing the configuration itself on its first shard.  The decoded
    results are identical either way; the per-shard
    ``decode_stats["pipeline_analyses"]`` totals show the difference.
    """
    if payload is True:
        payload = pipeline_payload(config, policy, backend=backend)
    tasks = shard_tasks(
        config,
        policy.name,
        policy_fields(policy),
        shots,
        rng,
        num_shards=num_shards,
        decoder=decoder,
        dedup=dedup,
        batch_size=batch_size,
        backend=backend,
        pipeline_key=None if payload is None else payload.key,
    )
    if not tasks:
        # zero shots: fall back to the serial path so the result has the
        # same shape (one zero-shot estimate per observable, full stats)
        return run_surgery_ler(
            config, policy, 0, rng, decoder=decoder, dedup=dedup,
            backend=backend, decode_workers=1,
        )
    results = run_sweep_parallel(
        tasks,
        max_workers=max_workers,
        payloads=None if payload is None else [payload],
    )
    # aggregate shard stats under the same keys the serial path reports
    totals = {
        key: sum(r.decode_stats.get(key, 0) for r in results)
        for key in _ler.BATCH_STAT_KEYS
    }
    totals["shards"] = len(results)
    totals["backend"] = results[0].decode_stats.get("backend")
    totals["backend_capabilities"] = results[0].decode_stats.get(
        "backend_capabilities"
    )
    totals["dedup_hit_rate"] = (
        1.0 - totals["decode_calls"] / shots if shots else 0.0
    )
    # predecode offload statistics (present when the decoder wraps a
    # predecoder) pool like the failure counts: plain sums over shards
    predecode = [r.decode_stats.get("predecode") for r in results]
    if any(p is not None for p in predecode):
        keys = next(p for p in predecode if p is not None).keys()
        totals["predecode"] = {
            k: sum(p.get(k, 0) for p in predecode if p is not None) for k in keys
        }
    return LerResult(
        config=config,
        shots=shots,
        estimates=merge_results(results),
        plan_summary=results[0].plan_summary,
        decode_stats=totals,
    )


def merge_results(results: list[LerResult]) -> list[RateEstimate]:
    """Combine shot batches of the *same* configuration into pooled estimates."""
    if not results:
        return []
    first = results[0]
    if any(r.config != first.config for r in results):
        raise ValueError("merge_results expects batches of one configuration")
    nobs = len(first.estimates)
    merged = []
    for k in range(nobs):
        successes = sum(r.estimates[k].successes for r in results)
        trials = sum(r.estimates[k].trials for r in results)
        merged.append(RateEstimate(successes, trials))
    return merged
