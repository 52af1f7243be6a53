"""Run ledger: durable per-run provenance for sweep executions.

PR 7 (:mod:`repro.obs.core`) gave one *process* spans and counters; this
module gives one *run* a durable identity.  Every :func:`~repro.experiments.
sweeps.run_sweep` invocation (unless opted out) mints a run id and records,
under ``runs/`` inside the result store it writes to::

    <store root>/runs/
      <run_id>/
        manifest.json     provenance snapshot (atomic rewrite on finish)
        events.jsonl      append-only event log, one JSON object per line

The **manifest** answers "what produced the records in this store": spec
digest + full spec dict, ``STORE_SALT``, the decode path the host runs
(``backend_resolved``: ``cext`` or ``python``), workers,
python/platform, a snapshot of every ``REPRO_*`` environment knob, and —
once the run finishes — the exit status, report summary and final
:mod:`repro.obs` metrics snapshot.

The **event log** answers "what happened, when": run start/finish, point
started/converged/store-served, every batch decoded/overshot (with
the name of the thread that decoded it), and periodic heartbeats with cumulative
progress.  It is append-only and crash-tolerant: each event is one flushed
line, and the reader skips a truncated tail line (the signature of a crash
mid-append) instead of failing.

Bit-neutrality contract (same as PR 7): the ledger observes the sweep, it
never participates in it.  Nothing written here feeds keys, estimates or
stored point records — ``tests/test_ledger.py`` asserts records are
byte-identical with the ledger on vs off across scheduler configurations.

CLI surfaces: ``repro runs list/show/gc`` (over :class:`RunLedger`) and
``repro sweep watch`` (over :func:`watch_snapshot`).  Schema details live in
docs/OBSERVABILITY.md; ``scripts/validate_results.py --ledger RUNDIR``
validates a run directory structurally.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import time
from pathlib import Path

__all__ = [
    "RUN_SCHEMA",
    "RunLedger",
    "RunWriter",
    "NULL_RUN_WRITER",
    "mint_run_id",
    "ledger_env_enabled",
    "sweep_manifest",
    "watch_snapshot",
    "estimate_point_cost",
]


def estimate_point_cost(shots: int, max_shots: int, batch_shots: int) -> dict:
    """Remaining-work estimate for one sweep point, pure numbers in and out.

    The single cost model shared by ``sweep watch`` ETAs
    (:func:`watch_snapshot`), the concurrent scheduler's cost-ordered point
    admission, the ``sweep run --dry-run`` planner and ``sweep status
    --verbose``: given the applied ``shots``, the spec's ``max_shots`` cap
    and ``batch_shots``, it returns::

        {"batches_remaining": ...,  # batches still to decode to the cap
         "new_shots": ...}          # projected decode volume (the final
                                    # batch may overshoot the cap; that is
                                    # real work, so it is counted)

    This is the shot-cap worst case: a ``target_rse`` stopping rule may
    converge the point earlier, and the estimate cannot know that without
    decoding — which is exactly what it exists to avoid.
    """
    size = max(1, int(batch_shots))
    remaining_shots = max(0, int(max_shots) - int(shots))
    batches_remaining = math.ceil(remaining_shots / size)
    return {
        "batches_remaining": batches_remaining,
        "new_shots": batches_remaining * size,
    }

#: schema tag stamped into every run manifest (v2: batch provenance is the
#: decoding thread's name, ``worker``, instead of v1's ``worker_pid``)
RUN_SCHEMA = "repro.obs.run/v2"

#: events the writer emits (the validator cross-checks against this set)
EVENT_NAMES = (
    "run_start",
    "run_finish",
    "point_start",
    "point_store_served",
    "point_converged",
    "batch",
    "heartbeat",
)


def _wallclock() -> float:
    """Ledger timestamps are provenance metadata — explicitly
    execution-dependent, never part of keys, estimates or point records.
    """
    return time.time()  # lint: ok[determinism-time] ledger provenance timestamp


def mint_run_id() -> str:
    """A unique, sortable run id: UTC timestamp prefix + entropy suffix.

    Run ids identify *executions*, which are inherently non-reproducible
    events — uniqueness matters here, reproducibility cannot apply.  The
    timestamp prefix makes lexicographic order equal launch order, which
    ``runs list`` and ``--latest`` rely on.
    """
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())  # lint: ok[determinism-time] run id launch stamp
    suffix = os.urandom(4).hex()  # lint: ok[determinism-entropy] run ids are unique, not reproducible
    return f"{stamp}-{suffix}"


def ledger_env_enabled() -> bool:
    """Default ledger activation: on unless ``REPRO_RUN_LEDGER`` disables it."""
    raw = os.environ.get("REPRO_RUN_LEDGER")
    if raw is None:
        return True
    return raw.strip().lower() not in ("", "0", "false", "off", "no")


def _env_snapshot() -> dict:
    """Every ``REPRO_*`` knob in the environment, for the manifest."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def sweep_manifest(spec, *, workers: int = 1) -> dict:
    """The provenance manifest of one sweep run (before it starts).

    ``run_id``/``created_at`` are stamped by :class:`RunWriter`;
    ``finished_at``/``summary``/``metrics`` arrive at :meth:`RunWriter.
    finish`.  Imports are local to keep :mod:`repro.obs` import-light (the
    store imports ``repro.obs`` at module level — the ledger must not import
    the store back at module level).
    """
    from ..decoders import kernels
    from ..store.keys import STORE_SALT

    spec_dict = spec.to_dict()
    digest = hashlib.sha256(
        json.dumps(spec_dict, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "schema": RUN_SCHEMA,
        "run_id": None,
        "status": "running",
        "sweep": spec.name,
        "spec_digest": digest,
        "spec": spec_dict,
        "points": len(spec.points()),
        "seed": spec.seed,
        "store_salt": STORE_SALT,
        "workers": int(workers),
        "backend_resolved": kernels.backend(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "env": _env_snapshot(),
    }


class RunWriter:
    """Appends one run's manifest + event log under ``runs_root``.

    All methods are no-ops after :meth:`finish`.  The writer keeps its own
    cumulative totals (shots/batches by kind, batches per worker thread) so
    heartbeat events carry progress without the caller threading counters
    through.  ``heartbeat_interval`` paces :meth:`maybe_heartbeat` on a
    monotonic clock; ``0`` emits on every call (tests).
    """

    def __init__(
        self,
        runs_root: str | Path,
        manifest: dict,
        *,
        run_id: str | None = None,
        heartbeat_interval: float = 10.0,
    ):
        self.run_id = run_id or mint_run_id()
        self.dir = Path(runs_root) / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest = dict(manifest)
        self.manifest["run_id"] = self.run_id
        self.manifest.setdefault("schema", RUN_SCHEMA)
        self.manifest.setdefault("status", "running")
        self.manifest["created_at"] = _wallclock()
        self.heartbeat_interval = float(heartbeat_interval)
        self.shots_decoded = 0
        self.batch_counts = {"decoded": 0, "overshoot": 0}
        self.workers_seen: dict[str, int] = {}
        self._last_beat: float | None = None
        self._closed = False
        self._events_path = self.dir / "events.jsonl"
        self._fh = open(self._events_path, "a")
        self._write_manifest()
        self.event("run_start", sweep=self.manifest.get("sweep"))

    def _write_manifest(self) -> None:
        # atomic like the store's record writes: a crash never leaves a
        # truncated manifest, only a stale one (status stuck at "running",
        # which is exactly what a crashed run looks like)
        tmp = self.dir / "manifest.json.tmp"
        tmp.write_text(
            json.dumps(self.manifest, indent=1, sort_keys=True, default=str)
        )
        os.replace(tmp, self.dir / "manifest.json")

    def event(self, ev: str, **fields) -> None:
        """Append one event line (flushed immediately — crash tolerance)."""
        if self._closed:
            return
        rec = {"ev": ev, "t": _wallclock(), "pid": os.getpid()}
        rec.update(fields)
        self._fh.write(json.dumps(rec, default=str) + "\n")
        self._fh.flush()

    # -- structured event helpers (what the sweep scheduler calls) ---------

    def point_start(self, key: str, *, config=None, shots=0, max_shots=None) -> None:
        """A point enters the decode loop (``shots`` = resumed checkpoint)."""
        self.event(
            "point_start", key=key, config=config, shots=shots, max_shots=max_shots
        )

    def point_store_served(self, key: str, *, status=None, shots=0) -> None:
        """A point was satisfied by the store — nothing decoded this run."""
        self.event("point_store_served", key=key, status=status, shots=shots)

    def point_converged(self, key: str, *, stop_reason=None, shots=0, batches=0) -> None:
        """A point's stopping rule fired (``stop_reason`` names which)."""
        self.event(
            "point_converged",
            key=key,
            stop_reason=stop_reason,
            shots=shots,
            batches=batches,
        )

    def batch(self, key: str, index: int, shots: int, kind: str, *, worker=None) -> None:
        """One batch outcome; ``kind`` is decoded / overshoot.

        ``worker`` names the thread that decoded the batch.
        """
        if kind not in self.batch_counts:
            raise ValueError(f"unknown batch kind {kind!r}")
        self.batch_counts[kind] += 1
        if kind == "decoded":
            self.shots_decoded += int(shots)
        if worker is not None:
            worker = str(worker)
            self.workers_seen[worker] = self.workers_seen.get(worker, 0) + 1
        self.event(
            "batch", key=key, index=int(index), shots=int(shots), kind=kind,
            worker=worker,
        )

    def maybe_heartbeat(self, **fields) -> bool:
        """Emit a heartbeat if the pacing interval elapsed (monotonic)."""
        if self._closed:
            return False
        now = time.perf_counter()
        if (
            self._last_beat is not None
            and now - self._last_beat < self.heartbeat_interval
        ):
            return False
        self._last_beat = now
        self.event(
            "heartbeat",
            shots_decoded=self.shots_decoded,
            batches=dict(self.batch_counts),
            workers=dict(sorted(self.workers_seen.items())),
            **fields,
        )
        return True

    def finish(self, status: str, *, summary=None, metrics=None) -> None:
        """Seal the run: final event, close the log, rewrite the manifest."""
        if self._closed:
            return
        self.event("run_finish", status=status, summary=summary)
        self._fh.close()
        self._closed = True
        self.manifest["status"] = status
        self.manifest["finished_at"] = _wallclock()
        if summary is not None:
            self.manifest["summary"] = summary
        if metrics is not None:
            self.manifest["metrics"] = metrics
        self._write_manifest()


class _NullRunWriter:
    """Ledger-off stand-in: same surface as :class:`RunWriter`, writes nothing."""

    run_id = None

    def event(self, ev, **fields):
        pass

    def point_start(self, key, **fields):
        pass

    def point_store_served(self, key, **fields):
        pass

    def point_converged(self, key, **fields):
        pass

    def batch(self, key, index, shots, kind, **fields):
        pass

    def maybe_heartbeat(self, **fields):
        return False

    def finish(self, status, **fields):
        pass


#: shared no-op writer (the ledger-disabled path allocates nothing)
NULL_RUN_WRITER = _NullRunWriter()


class RunLedger:
    """Read-side of the ledger: enumerate, load and prune run directories."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @classmethod
    def for_store(cls, store) -> "RunLedger":
        return cls(store.runs_root)

    def run_ids(self) -> list:
        """All recorded run ids, sorted (= launch order via the id prefix)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir()
            and ((p / "manifest.json").exists() or (p / "events.jsonl").exists())
        )

    def latest(self) -> str | None:
        """The most recently launched run id (ids sort by launch stamp)."""
        ids = self.run_ids()
        return ids[-1] if ids else None

    def manifest(self, run_id: str) -> dict | None:
        """The run's manifest dict, or None if missing/corrupt."""
        try:
            with open(self.root / run_id / "manifest.json") as f:
                data = json.load(f)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def events(self, run_id: str) -> list:
        """Every parseable event of a run, in append order.

        A truncated tail line — the signature of a crash mid-append — is
        skipped, not fatal; so is any other damaged line (the events around
        it still tell the story).
        """
        out = []
        try:
            text = (self.root / run_id / "events.jsonl").read_text()
        except OSError:
            return out
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except ValueError:
                continue
            if isinstance(ev, dict):
                out.append(ev)
        return out

    def status(self, run_id: str) -> str:
        """Best-known status: finish event wins, else manifest, else unknown.

        A manifest stuck at ``running`` with a ``run_finish`` event means the
        finish's manifest rewrite was lost — the event log is the authority.
        """
        for ev in reversed(self.events(run_id)):
            if ev.get("ev") == "run_finish":
                return str(ev.get("status", "unknown"))
        manifest = self.manifest(run_id)
        if manifest is not None:
            return str(manifest.get("status", "unknown"))
        return "unknown"

    def gc(self, *, older_than_seconds: float, now: float | None = None,
           dry_run: bool = False) -> dict:
        """Prune run directories older than the horizon.

        Age comes from ``finished_at`` (or ``created_at``) in the manifest,
        falling back to the event log's mtime — so a crashed run with no
        manifest rewrite still ages out.
        """
        if now is None:
            now = _wallclock()
        removed, kept = [], 0
        for run_id in self.run_ids():
            manifest = self.manifest(run_id) or {}
            stamp = manifest.get("finished_at") or manifest.get("created_at")
            if not isinstance(stamp, (int, float)):
                try:
                    stamp = (self.root / run_id / "events.jsonl").stat().st_mtime
                except OSError:
                    stamp = 0.0
            if now - float(stamp) > older_than_seconds:
                removed.append(run_id)
                if not dry_run:
                    shutil.rmtree(self.root / run_id, ignore_errors=True)
            else:
                kept += 1
        return {"removed": removed, "kept": kept, "dry_run": dry_run}


def _point_label(config) -> str:
    """Human label of a point from the config dict a point_start carried."""
    if not isinstance(config, dict):
        return "?"
    parts = []
    if config.get("distance") is not None:
        parts.append(f"d={config['distance']}")
    if config.get("tau_ns") is not None:
        parts.append(f"tau={config['tau_ns']:g}")
    if config.get("policy"):
        parts.append(str(config["policy"]))
    return " ".join(parts) or "?"


def watch_snapshot(store, run_id: str | None = None) -> dict:
    """One render-ready view of a live (or finished) run.

    Joins two sources: the run's event log (which points exist, batch
    cadence, status) and the store's point records (shots so far).  The
    ETA divides the estimated remaining batch count by the observed decode
    cadence; both degrade gracefully to None.
    """
    ledger = RunLedger.for_store(store)
    rid = run_id or ledger.latest()
    if rid is None:
        raise ValueError(f"no runs recorded under {ledger.root}")
    manifest = ledger.manifest(rid) or {}
    events = ledger.events(rid)
    spec = manifest.get("spec") or {}
    spec_max_shots = int(spec.get("max_shots") or 0)
    batch_shots = int(spec.get("batch_shots") or 0)

    points: dict[str, dict] = {}
    totals = {"decoded": 0, "overshoot": 0}
    shots_decoded = 0
    decode_times: list[float] = []
    status = str(manifest.get("status", "running"))
    started_at = manifest.get("created_at")
    finished_at = manifest.get("finished_at")

    def _row(key) -> dict:
        return points.setdefault(
            key,
            {
                "key": key,
                "label": "?",
                "status": "pending",
                "shots": 0,
                "max_shots": spec_max_shots or None,
                "batches": 0,
                "batches_remaining": None,
                "stop_reason": None,
            },
        )

    for ev in events:
        name = ev.get("ev")
        if name == "point_start":
            row = _row(ev.get("key"))
            row["status"] = "running"
            row["label"] = _point_label(ev.get("config"))
            if ev.get("max_shots"):
                row["max_shots"] = int(ev["max_shots"])
        elif name == "point_store_served":
            row = _row(ev.get("key"))
            row["status"] = (
                "not_applicable"
                if ev.get("status") == "not_applicable"
                else "store_served"
            )
            row["shots"] = int(ev.get("shots") or 0)
        elif name == "point_converged":
            row = _row(ev.get("key"))
            row["status"] = "converged"
            row["stop_reason"] = ev.get("stop_reason")
        elif name == "batch":
            kind = ev.get("kind")
            if kind in totals:
                totals[kind] += 1
            if kind == "decoded":
                shots_decoded += int(ev.get("shots") or 0)
                if isinstance(ev.get("t"), (int, float)):
                    decode_times.append(float(ev["t"]))
        elif name == "run_finish":
            status = str(ev.get("status", status))
            finished_at = ev.get("t", finished_at)

    # overlay live store state: shots/batches applied so far
    for key, row in points.items():
        record = store.get(key) if key else None
        if not record:
            continue
        row["shots"] = int(record.get("shots", row["shots"]))
        row["batches"] = int(record.get("batches", 0))
        if record.get("converged") and row["status"] in ("pending", "running"):
            row["status"] = "converged"
            row["stop_reason"] = record.get("stop_reason")
        max_shots = row["max_shots"] or 0
        if row["status"] in ("pending", "running") and batch_shots and max_shots:
            cost = estimate_point_cost(row["shots"], max_shots, batch_shots)
            row["batches_remaining"] = cost["batches_remaining"]
        elif row["status"] not in ("pending", "running"):
            row["batches_remaining"] = 0

    rate = None
    if len(decode_times) >= 2:
        span = decode_times[-1] - decode_times[0]
        if span > 0:
            rate = (len(decode_times) - 1) / span
    eta_s = None
    if status == "running" and rate:
        pending = [
            row["batches_remaining"]
            for row in points.values()
            if isinstance(row["batches_remaining"], int)
        ]
        if pending:
            eta_s = sum(pending) / rate

    return {
        "run_id": rid,
        "sweep": manifest.get("sweep"),
        "status": status,
        "started_at": started_at,
        "finished_at": finished_at,
        "workers": manifest.get("workers"),
        "points_expected": manifest.get("points"),
        "points": list(points.values()),
        "totals": dict(totals, shots_decoded=shots_decoded),
        "rate_batches_per_s": rate,
        "eta_s": eta_s,
    }
