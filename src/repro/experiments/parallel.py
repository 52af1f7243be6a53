"""Batch-task execution for the sweep scheduler: decode threads or inline.

The paper's artifact runs each configuration's shots as batches on a
128-process pool.  Here one :class:`SweepTask` is one seeded shot batch of
one sweep point; :func:`submit_task` hands it to a caller-owned executor —
a ``concurrent.futures.ThreadPoolExecutor`` of decode threads, which it
does not wait for, so the scheduler in :mod:`repro.experiments.sweeps` keeps
dispatching while batches decode; or the in-process :class:`InlineExecutor`,
which decodes the batch before it returns.

Threads are enough because the work that dominates a batch, the ``cext``
union-find kernel, is a ``ctypes`` call that releases the GIL and
allocates its scratch per call.  A task carries the coordinator's own
analyzed pipeline (:func:`~repro.experiments.ler.prepared_pipeline`), so
nothing is pickled and no decode thread ever analyzes a circuit.  Workers
decode through the batch engine (:mod:`repro.decoders.batch`) with
syndrome dedup, so a batch's cost scales with its *distinct* syndromes.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass

from ..core.policies import make_policy
from .ler import LerResult, SurgeryLerConfig, clear_pipeline_cache, run_surgery_ler

__all__ = [
    "SweepTask",
    "submit_task",
    "InlineExecutor",
    "THREAD_NAME_PREFIX",
]

#: name prefix of the sweep's decode threads (ledger provenance)
THREAD_NAME_PREFIX = "repro-decode"

#: kept as an alias of :func:`~repro.experiments.ler.clear_pipeline_cache`
#: only because the repo benchmark (``perfbench/harness.py``) imports it;
#: there is no per-worker state left to reset
reset_warm_state = clear_pipeline_cache


class InlineExecutor:
    """A ``submit``-shaped executor that runs each task on the calling thread.

    The single-core counterpart of the decode-thread pool: schedulers built
    on :func:`submit_task` work unchanged, and ``submit`` returns a
    ``Future`` that is already finished.
    """

    def submit(self, fn, /, *args, **kwargs):
        """Run ``fn(*args)`` now; its result or exception is in the returned ``Future``."""
        if kwargs:
            raise TypeError("InlineExecutor.submit takes positional args only")
        fut = Future()
        try:
            result = fn(*args)
        except Exception as exc:
            fut.set_exception(exc)
        else:
            fut.set_result(result)
        return fut

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        """Nothing to tear down (matches the ThreadPoolExecutor surface)."""


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
    #: the coordinator's analyzed pipeline for ``config``
    #: (:func:`~repro.experiments.ler.prepared_pipeline`)
    pipeline: object
    decoder: str = "unionfind"


def _run_task(task: SweepTask) -> LerResult:
    policy = make_policy(task.policy_name, **dict(task.policy_kwargs))
    result = run_surgery_ler(
        task.config,
        policy,
        task.shots,
        task.seed,
        decoder=task.decoder,
        pipeline=task.pipeline,
    )
    # which thread decoded this batch — run-ledger provenance only.  Not in
    # BATCH_STAT_KEYS, so batch_stats() drops it before anything is stored.
    result.decode_stats["worker"] = threading.current_thread().name
    return result


def submit_task(pool, task: SweepTask):
    """Dispatch one task on a caller-owned executor.

    On a thread pool this returns the ``concurrent.futures.Future`` at once,
    so a scheduler can keep dispatching (later batches, other sweep points)
    while this task decodes.  An :class:`InlineExecutor` runs the task
    first and returns a finished future.
    """
    return pool.submit(_run_task, task)
