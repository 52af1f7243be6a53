"""Thread-safe tracing/metrics registry for the decode/sweep pipeline.

One module-level recorder per process, shared by the coordinator and the
sweep's decode threads, activated by :func:`configure` or the
``REPRO_TRACE`` / ``REPRO_METRICS`` environment knobs.  Everything
it produces is *observability output*: spans and counters are exported
next to the run (Chrome trace JSON, metrics snapshot) and are
never allowed to enter store point keys, stored estimates or any
prediction-affecting record field — the tracing-on/off bit-identity
contract is enforced by ``tests/test_obs.py``.

Two primitives:

* :func:`span` — a ``with``-scoped trace event.  When the recorder is
  disabled it returns a shared no-op singleton and the (optionally
  callable) attribute payload is *never evaluated*, so instrumented hot
  paths cost one attribute lookup and one identity check per span.
  ``span.annotate(**args)`` adds args computed inside the block.
* :func:`count` / :func:`event` — monotone counters and zero-duration
  instant events (e.g. speculative overshoot).

Threads: decode threads record their spans straight into the one
recorder.  That is safe without a lock because every recording is a single
``list.append``, which is atomic under the GIL; the read-modify-write
counters (:func:`count`) and instant events (:func:`event`) are only ever
called coordinator-side, by the sweep scheduler.  Every span and event
carries its ``pid`` and ``tid`` (``threading.get_ident()``), so an exported
trace has one lane per decode thread.  Timestamps come from
``time.perf_counter_ns``; wall-clock ``time.time`` is deliberately never
used: the determinism-time lint rule covers this package as part of the
decode path.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "Recorder",
    "Stopwatch",
    "stopwatch",
    "active",
    "enabled",
    "configure",
    "disable",
    "reset",
    "span",
    "event",
    "count",
]


class _NoopSpan:
    """Shared do-nothing span: the disabled-path cost of instrumentation."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **args) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live ``with``-scoped trace event (complete-event semantics)."""

    __slots__ = ("_recorder", "name", "args", "_t0")

    def __init__(self, recorder: "Recorder", name: str, args):
        self._recorder = recorder
        self.name = name
        self.args = args

    def __enter__(self):
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        ev = {
            "name": self.name,
            "ts": self._t0,
            "dur": t1 - self._t0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self.args:
            ev["args"] = self.args
        # one atomic append: decode threads share this list (module docstring)
        self._recorder.events.append(ev)
        return False

    def annotate(self, **args) -> None:
        """Add args known only inside the span (e.g. a result's size)."""
        self.args = {**(self.args or {}), **args}


class Stopwatch:
    """Always-on ``with``-scoped timer (the one ad-hoc timing idiom).

    Unlike :func:`span` this is *measurement*, not observability: callers
    keep the duration (``.ns`` / ``.seconds``) as data — engine
    ``decode_seconds``, per-syndrome decoder latencies, benchmark rows —
    so it runs whether or not tracing is enabled.
    """

    __slots__ = ("_t0", "ns")

    def __enter__(self):
        self.ns = 0
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.ns = time.perf_counter_ns() - self._t0
        return False

    @property
    def seconds(self) -> float:
        return self.ns / 1e9


def stopwatch() -> Stopwatch:
    """A fresh :class:`Stopwatch` (``with obs.stopwatch() as sw: ...``)."""
    return Stopwatch()


class Recorder:
    """Per-process event buffer + counters behind the module-level API.

    Events are plain dicts (``name``/``ts``/``dur``/``pid``/``tid`` and
    optional ``args``); span summaries are computed from the event list at
    snapshot time (never incrementally), so recording stays one append.
    """

    def __init__(self, *, trace_path=None, metrics_path=None):
        self.trace_path = os.fspath(trace_path) if trace_path else None
        self.metrics_path = os.fspath(metrics_path) if metrics_path else None
        self.events: list[dict] = []
        self.counters: dict[str, int] = {}

    def span(self, name: str, args=None) -> _Span:
        """A live ``with``-scoped span recording into this buffer."""
        return _Span(self, name, args)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named monotone counter by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def event(self, name: str, args=None) -> None:
        """A zero-duration instant event (e.g. speculative overshoot)."""
        ev = {
            "name": name,
            "ts": time.perf_counter_ns(),
            "dur": 0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if args:
            ev["args"] = args
        self.events.append(ev)


#: the per-process singleton; ``None`` + unresolved env means "not decided
#: yet" — the first touch resolves REPRO_TRACE/REPRO_METRICS lazily
_RECORDER: Recorder | None = None
_ENV_RESOLVED = False


def _resolve_env() -> None:
    # deliberate lazy init, once per process, and always on the coordinator:
    # the scheduler's sweep.dispatch span resolves it before the first task
    # is submitted, so decode threads only ever read the resolved state
    global _RECORDER, _ENV_RESOLVED  # lint: ok[contract-worker-globals]
    _ENV_RESOLVED = True
    trace = os.environ.get("REPRO_TRACE") or None
    metrics = os.environ.get("REPRO_METRICS") or None
    if trace or metrics:
        _RECORDER = Recorder(trace_path=trace, metrics_path=metrics)


def active() -> Recorder | None:
    """The process's recorder, or None when tracing is disabled."""
    if not _ENV_RESOLVED:
        _resolve_env()
    return _RECORDER


def enabled() -> bool:
    """Whether this process currently has a recorder installed."""
    return active() is not None


def configure(*, trace_path=None, metrics_path=None) -> Recorder:
    """Install (and return) a fresh recorder for this process.

    Paths are optional: a path-less recorder still collects spans and
    counters for in-process inspection (benchmarks, tests).
    """
    global _RECORDER, _ENV_RESOLVED
    _ENV_RESOLVED = True
    _RECORDER = Recorder(trace_path=trace_path, metrics_path=metrics_path)
    return _RECORDER


def disable() -> None:
    """Force tracing off for this process (ignores the env)."""
    global _RECORDER, _ENV_RESOLVED
    _RECORDER = None
    _ENV_RESOLVED = True


def reset() -> None:
    """Back to the undecided state: next touch re-reads the env (tests)."""
    global _RECORDER, _ENV_RESOLVED
    _RECORDER = None
    _ENV_RESOLVED = False


def span(name: str, args=None):
    """A trace span, or the shared no-op when tracing is disabled.

    ``args`` may be a dict or a zero-argument callable producing one; the
    callable form is *never invoked* on the disabled path, so attribute
    construction costs nothing when tracing is off (tested guarantee).
    """
    rec = active()
    if rec is None:
        return _NOOP_SPAN
    return rec.span(name, args() if callable(args) else args)


def event(name: str, args=None) -> None:
    """Emit a zero-duration instant event (no-op when disabled)."""
    rec = active()
    if rec is not None:
        rec.event(name, args() if callable(args) else args)


def count(name: str, n: int = 1) -> None:
    """Bump a named counter (no-op when disabled)."""
    rec = active()
    if rec is not None:
        rec.count(name, n)
