"""Thread-safe tracing/metrics registry for the decode/sweep pipeline.

One module-level recorder per process, shared by the coordinator and the
sweep's decode threads, activated by :func:`configure` or the
``REPRO_TRACE`` / ``REPRO_METRICS`` environment knobs.  Everything
it produces is *observability output*: spans, counters and histograms are
exported next to the run (Chrome trace JSON, metrics snapshot) and are
never allowed to enter store point keys, stored estimates or any
prediction-affecting record field — the tracing-on/off bit-identity
contract is enforced by ``tests/test_obs.py``.

Three primitives:

* :func:`span` — a ``with``-scoped trace event.  When the recorder is
  disabled it returns a shared no-op singleton and the (optionally
  callable) attribute payload is *never evaluated*, so instrumented hot
  paths cost one attribute lookup and one identity check per span.
* :func:`count` / :func:`event` — monotone counters and zero-duration
  instant events (e.g. speculative overshoot).
* :class:`LatencyHistogram` — fixed-bucket integer-ns histograms whose
  merge is an elementwise sum of exact integer counts, so metrics pooled
  from any number of workers in any order are identical (worker-count
  independence is a tested invariant, like the estimate parity contract).

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
    "DEFAULT_BUCKET_BOUNDS_NS",
    "LatencyHistogram",
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

#: 1-2-5 geometric bucket upper bounds, 100 ns .. 500 s.  Fixed (never
#: derived from observed data), so histograms built by different processes
#: are always mergeable and the merged result is worker-count-independent.
DEFAULT_BUCKET_BOUNDS_NS: tuple[int, ...] = tuple(
    m * 10**decade for decade in range(2, 12) for m in (1, 2, 5)
)


class LatencyHistogram:
    """Fixed-bucket latency histogram over exact integer nanoseconds.

    ``counts`` has one slot per bound plus an overflow slot; every counter
    is an exact int, so :meth:`merge` (elementwise sum) is associative and
    commutative — the pooled histogram is independent of how work was
    split across workers.  Percentiles resolve to a bucket upper bound
    (clamped to the observed max), trading sub-bucket precision for
    merge-exactness.
    """

    __slots__ = ("bounds", "counts", "count", "sum_ns", "min_ns", "max_ns")

    def __init__(self, bounds: tuple[int, ...] = DEFAULT_BUCKET_BOUNDS_NS):
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be non-empty and increasing")
        self.bounds = tuple(int(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum_ns = 0
        self.min_ns = 0
        self.max_ns = 0

    def _bucket(self, ns: int) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if ns <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def record_ns(self, ns: int) -> None:
        """Record one duration (negative clamps to 0: clock granularity)."""
        ns = max(0, int(ns))
        self.counts[self._bucket(ns)] += 1
        if self.count == 0:
            self.min_ns = self.max_ns = ns
        else:
            self.min_ns = min(self.min_ns, ns)
            self.max_ns = max(self.max_ns, ns)
        self.count += 1
        self.sum_ns += ns

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram in (exact elementwise sum); returns self."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        if other.count:
            if self.count == 0:
                self.min_ns, self.max_ns = other.min_ns, other.max_ns
            else:
                self.min_ns = min(self.min_ns, other.min_ns)
                self.max_ns = max(self.max_ns, other.max_ns)
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum_ns += other.sum_ns
        return self

    def percentile_ns(self, q: float) -> int:
        """Upper bound of the bucket holding the q-th percentile (0 < q <= 100).

        The overflow bucket resolves to the exact observed max (which merges
        exactly), so the estimate never exceeds a real observation.
        """
        if not 0.0 < q <= 100.0:
            raise ValueError("q must be in (0, 100]")
        if self.count == 0:
            return 0
        target = max(1, -(-int(q * self.count) // 100))  # ceil(q/100 * count)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                bound = self.bounds[i] if i < len(self.bounds) else self.max_ns
                return min(bound, self.max_ns)
        return self.max_ns  # pragma: no cover - counts always sum to count

    def to_dict(self) -> dict:
        """JSON form (``repro.obs.metrics/v1`` histogram entry)."""
        return {
            "bucket_bounds_ns": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "p50_ns": self.percentile_ns(50) if self.count else 0,
            "p95_ns": self.percentile_ns(95) if self.count else 0,
            "p99_ns": self.percentile_ns(99) if self.count else 0,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        self = cls(tuple(data["bucket_bounds_ns"]))
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(self.counts):
            raise ValueError("counts length does not match bucket bounds")
        self.counts = counts
        self.count = int(data["count"])
        self.sum_ns = int(data["sum_ns"])
        self.min_ns = int(data["min_ns"])
        self.max_ns = int(data["max_ns"])
        return self


class _NoopSpan:
    """Shared do-nothing span: the disabled-path cost of instrumentation."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


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
    optional ``args``); metrics histograms are folded from the event list
    at snapshot time (never incrementally), so recording stays one append.
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

    def histograms(self) -> "dict[str, LatencyHistogram]":
        """Per-span-kind latency histograms folded from the event list."""
        out: dict[str, LatencyHistogram] = {}
        for ev in self.events:
            hist = out.get(ev["name"])
            if hist is None:
                hist = out[ev["name"]] = LatencyHistogram()
            hist.record_ns(ev["dur"])
        return out


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
