"""Batch-task execution for the sweep scheduler: process pool or in-process.

The paper's artifact runs each configuration's shots as batches on a
128-process pool.  Here one :class:`SweepTask` is one seeded shot batch of
one sweep point; :func:`submit_task` hands it to a caller-owned executor —
a process pool from :func:`pool_executor`, or the lazy in-process
:class:`InlineExecutor` — without blocking, so the scheduler in
:mod:`repro.experiments.sweeps` keeps dispatching while batches decode.

Workers decode through the batch engine (:mod:`repro.decoders.batch`) with
syndrome dedup, so a batch's cost scales with its *distinct* syndromes.
Each worker installs a point's analyzed pipeline once, from the payload
spool file its tasks name (:func:`install_payload`), and keeps it across
every batch and sweep point it serves.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass

from .. import obs
from ..core.policies import make_policy
from . import ler as _ler
from .ler import LerResult, PipelinePayload, SurgeryLerConfig, run_surgery_ler

__all__ = [
    "SweepTask",
    "install_payload",
    "reset_warm_state",
    "submit_task",
    "absorb_result_spans",
    "pool_executor",
    "InlineFuture",
    "InlineExecutor",
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
    be *cancelled*, so the inline scheduler decodes exactly the batches the
    estimates need.
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
    pipelines) when their :class:`InlineFuture` is forced.
    """

    def submit(self, fn, /, *args, **kwargs):
        """Defer ``fn(*args)`` into a lazy :class:`InlineFuture`."""
        if kwargs:
            raise TypeError("InlineExecutor.submit takes positional args only")
        return InlineFuture(fn, args)

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        """Nothing to tear down (matches the ProcessPoolExecutor surface)."""


#: worker-process cache: pipeline key -> decode-ready pipeline, installed by
#: :func:`install_payload` so workers skip circuit analysis entirely when the
#: coordinator hands them a serialized DEM; bounded like the in-process
#: pipeline LRU
_WARM_PIPELINES: "OrderedDict[tuple, object]" = OrderedDict()


def install_payload(payload: PipelinePayload) -> None:
    """Install one payload into this process's warm-pipeline LRU.

    Pool workers install the payload they unpickle from a task's spool file
    on first contact; the inline executor's coordinator installs the payload
    object directly, with no serialization round-trip.  Either way a task
    whose ``pipeline_key`` matches skips circuit analysis.  When the payload
    was packaged from this process's own pipeline LRU (the DEM is the very
    same object), that pipeline — graph, sampler and decoders — is reused
    instead of being rebuilt; an unpickled payload never matches.
    """
    if payload.key not in _WARM_PIPELINES:
        cached = _ler._PIPELINE_CACHE.get(payload.key)
        if cached is not None and cached.dem is payload.dem:
            pipe = cached
        else:
            pipe = _ler._Pipeline.from_payload(payload)
        _WARM_PIPELINES[payload.key] = pipe
    _WARM_PIPELINES.move_to_end(payload.key)
    limit = max(1, _ler.PIPELINE_CACHE_SIZE)
    while len(_WARM_PIPELINES) > limit:
        _WARM_PIPELINES.popitem(last=False)


def reset_warm_state() -> None:
    """Drop warm pipelines (tests, memory pressure)."""
    _WARM_PIPELINES.clear()


@dataclass(frozen=True)
class SweepTask:
    """One seeded shot batch of one sweep point.

    ``seed`` may be an int, ``None``, or a ``SeedSequence`` / ``Generator``
    (anything :func:`repro._util.resolve_rng` accepts).
    """

    config: SurgeryLerConfig
    policy_name: str
    policy_kwargs: tuple
    shots: int
    seed: object
    decoder: str = "unionfind"
    #: decode-kernel backend; None defers to the worker's DECODE_DEFAULTS
    backend: str | None = None
    #: when set, the executing worker looks this key up in its warm-pipeline
    #: cache instead of re-analyzing the circuit
    pipeline_key: tuple | None = None
    #: path to a pickled PipelinePayload spool file: the serialized DEM
    #: crosses the IPC boundary once per (configuration, worker) — each
    #: worker reads and installs the file on first contact with
    #: ``pipeline_key`` — instead of riding along with every batch task
    payload_path: str | None = None


def _run_task(task: SweepTask) -> LerResult:
    policy = make_policy(task.policy_name, **dict(task.policy_kwargs))
    pipeline = None
    if task.pipeline_key is not None:
        if task.pipeline_key not in _WARM_PIPELINES and task.payload_path is not None:
            with open(task.payload_path, "rb") as f:
                install_payload(pickle.load(f))
        pipeline = _WARM_PIPELINES.get(task.pipeline_key)
    analyses_before = _ler.PIPELINE_ANALYSES
    # obs.collect drains the spans this task emits so they travel back on
    # the result (and are absorbed exactly once by the coordinator, whether
    # the task ran pooled or in-process)
    with obs.collect() as spans:
        result = run_surgery_ler(
            task.config,
            policy,
            task.shots,
            task.seed,
            decoder=task.decoder,
            backend=task.backend,
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

    Called where task results re-enter the coordinator (the sweep
    scheduler's receive path).  Spans are cleared off the result after
    absorption, so a result is only ever counted once.
    """
    for result in results:
        events = getattr(result, "obs_spans", None)
        if events:
            obs.absorb(events)
            result.obs_spans = []


def submit_task(pool: ProcessPoolExecutor, task: SweepTask):
    """Dispatch one task on a caller-owned executor, without blocking.

    Returns the ``concurrent.futures.Future`` immediately so a scheduler can
    keep dispatching (speculative batches, other sweep points) while this
    task decodes.  A pool worker warms itself from ``task.payload_path`` on
    first contact with the task's configuration.  ``pool`` may be a process
    pool or an :class:`InlineExecutor` — the latter returns a lazy
    :class:`InlineFuture` the scheduler forces when it needs the result.
    """
    return pool.submit(_run_task, task)
