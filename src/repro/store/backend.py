"""Content-addressed experiment result store (JSON file backend).

Layout under the store root::

    <root>/
      points/
        <key[:2]>/<key>.json            one record per point key
      batches/
        <key[:2]>/<key>/<index>.json    commit-ahead per-batch records
      runs/
        <run_id>/manifest.json          run-ledger provenance manifests
        <run_id>/events.jsonl           run-ledger event logs (append-only)

Each point record is one self-describing JSON object (failure counts, shots,
batches consumed, convergence state, decode statistics and the canonical key
payload it was hashed from).  Writes are atomic (temp file + ``os.replace``)
so an interrupted sweep never leaves a truncated record: the store always
holds the state as of the last completed checkpoint, which is exactly what
``repro sweep run --resume`` continues from.

*Batch* records are the speculative scheduler's commit-ahead log: one batch's
raw outcome (failure counts + accumulable decode counters), deterministic in
``(sweep seed, point key, batch index, batch size)``.  The concurrent
scheduler commits every decoded batch here the moment it completes — even
batches the stopping rule later excludes from the estimate — so an
interrupted speculative run resumes by *replaying* already-decoded batches
instead of re-decoding them, and speculative overshoot is never wasted work.
A batch record whose ``shots`` disagree with the scheduler's planned size
(adaptive batch sizing grew the plan after the batch was dispatched) is
ignored on replay and overwritten on the next commit.

The root directory is configurable per store; :func:`default_store` resolves
the default store from the ``REPRO_STORE_ROOT`` environment variable.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from .. import obs

__all__ = ["ResultStore", "default_store"]


class ResultStore:
    """One result-store root; keys are sha256 hex digests from :mod:`.keys`."""

    def __init__(self, root: str | Path):
        # creation is lazy (first put): read-only operations like
        # ``sweep status`` on a mistyped path must not litter directories
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        if len(key) < 3 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / "points" / key[:2] / f"{key}.json"

    def _batch_dir(self, key: str) -> Path:
        self._path(key)  # key validation
        return self.root / "batches" / key[:2] / key

    @property
    def runs_root(self) -> Path:
        """Where the run ledger lives (``repro.obs.ledger``): ``runs/``.

        Run directories are provenance *about* the store, not store data:
        :meth:`clear` and :meth:`gc` never touch them (``repro runs gc``
        prunes them on their own horizon).
        """
        return self.root / "runs"

    def _write_json(self, path: Path, record: dict) -> None:
        # every durable write (point checkpoint or commit-ahead batch) funnels
        # through here, so this one span is the whole store-commit phase
        with obs.span("store.commit", lambda: {"file": path.name}):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(record, f, indent=1)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None."""
        path = self._path(key)
        try:
            with open(path) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def put(self, key: str, record: dict) -> None:
        """Atomically write (or overwrite) one record."""
        self._write_json(self._path(key), dict(record, key=key))

    # -- commit-ahead batch records ---------------------------------------

    def put_batch(self, key: str, index: int, record: dict) -> None:
        """Commit one decoded batch of point ``key`` (atomic, overwrites).

        ``record`` must carry the batch's ``shots`` and ``failures``; the
        index is stamped in.  Batch records are deterministic in
        ``(seed, key, index, shots)``, so overwriting is always harmless.
        """
        if index < 0:
            raise ValueError("batch index must be non-negative")
        self._write_json(
            self._batch_dir(key) / f"{index}.json",
            dict(record, key=key, index=int(index)),
        )

    def get_batch(self, key: str, index: int) -> dict | None:
        """The committed batch record at ``(key, index)``, or None.

        A truncated/corrupt file also returns None: batch records are pure
        derived data (re-decodable from the seed), so replay must fall
        through to a fresh decode instead of crashing the resume.
        """
        try:
            with open(self._batch_dir(key) / f"{index}.json") as f:
                return json.load(f)
        except (FileNotFoundError, ValueError):
            return None

    def batch_indices(self, key: str) -> list[int]:
        """Sorted indices of the batches committed ahead for ``key``."""
        out = []
        for p in self._batch_dir(key).glob("*.json"):
            try:
                out.append(int(p.stem))
            except ValueError:
                continue
        return sorted(out)

    def delete_batches(self, key: str, *, below: int | None = None) -> int:
        """Drop commit-ahead batches of ``key``; returns how many.

        ``below`` keeps indices >= below (used to trim the already-applied
        prefix while preserving speculative overshoot); None drops them all.
        """
        removed = 0
        batch_dir = self._batch_dir(key)
        for index in self.batch_indices(key):
            if below is not None and index >= below:
                continue
            try:
                os.unlink(batch_dir / f"{index}.json")
                removed += 1
            except FileNotFoundError:
                pass
        try:
            batch_dir.rmdir()  # only succeeds once emptied
        except OSError:
            pass
        return removed

    def delete(self, key: str) -> bool:
        """Remove one record; returns whether it existed."""
        try:
            os.unlink(self._path(key))
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> list[str]:
        """All stored point keys (sorted)."""
        points = self.root / "points"
        return sorted(p.stem for p in points.glob("??/*.json"))

    def records(self):
        """Iterate over every stored record."""
        for key in self.keys():
            rec = self.get(key)
            if rec is not None:
                yield rec

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every record (and commit-ahead batches); returns how many
        point records were removed."""
        removed = 0
        for key in self.keys():
            self.delete_batches(key)
            removed += self.delete(key)
        batches = self.root / "batches"
        if batches.is_dir():
            for batch_dir in batches.glob("??/*"):
                if batch_dir.is_dir():  # orphans with no point record
                    for p in batch_dir.glob("*.json"):
                        p.unlink(missing_ok=True)
                    try:
                        batch_dir.rmdir()
                    except OSError:
                        pass
            for prefix in batches.glob("??"):
                try:
                    prefix.rmdir()  # only succeeds once emptied
                except OSError:
                    pass
        return removed

    def gc(
        self,
        *,
        older_than_seconds: float,
        now: float | None = None,
        dry_run: bool = False,
    ) -> dict:
        """Prune records whose last update predates the horizon.

        A record's age comes from its ``updated_at`` stamp (written on every
        checkpoint) and falls back to the file's mtime for records that
        never carried one.  A pruned point takes its commit-ahead batch
        records with it, orphaned batch records (no point record at all) age
        out by file mtime, and empty per-prefix point directories left
        behind are removed too.  ``dry_run`` reports what would happen
        without touching anything.  Returns a summary dict with the
        scanned/pruned/kept counts, the pruned keys, the batch records
        pruned, and the directories removed.
        """
        if older_than_seconds < 0:
            raise ValueError("older_than_seconds must be non-negative")
        # gc horizons are wall-clock by definition (record age on disk);
        # nothing here feeds keys or stored numbers
        now = time.time() if now is None else now  # lint: ok[determinism-time]
        horizon = now - older_than_seconds
        scanned = 0
        batches_pruned = 0
        pruned_keys: list[str] = []
        for key in self.keys():
            path = self._path(key)
            record = self.get(key)
            if record is None:  # raced with a concurrent delete
                continue
            scanned += 1
            stamp = record.get("updated_at")
            if stamp is None:
                try:
                    stamp = path.stat().st_mtime
                except OSError:
                    continue
            if float(stamp) < horizon:
                pruned_keys.append(key)
                if dry_run:
                    batches_pruned += len(self.batch_indices(key))
                else:
                    batches_pruned += self.delete_batches(key)
                    self.delete(key)
        # commit-ahead batches whose point record is gone entirely (orphans
        # from a crashed speculative run) age out with the same horizon,
        # judged by their file mtimes; per-prefix dirs the prune empties are
        # removed (and dry-run-predicted) like the points/ tree below
        pruned = set(pruned_keys)
        live = set(self.keys()) - pruned
        batch_dirs_removed: list[str] = []
        batches_root = self.root / "batches"
        if batches_root.is_dir():
            for prefix in sorted(p for p in batches_root.glob("??") if p.is_dir()):
                keeps_anything = False
                for batch_dir in sorted(prefix.iterdir()):
                    if not batch_dir.is_dir():
                        keeps_anything = True  # never touch foreign files
                        continue
                    if batch_dir.name in live:
                        keeps_anything = True
                        continue
                    if batch_dir.name in pruned:
                        continue  # removed with its point (above / on real run)
                    fresh = False
                    for p in sorted(batch_dir.glob("*.json")):
                        try:
                            if p.stat().st_mtime < horizon:
                                batches_pruned += 1
                                if not dry_run:
                                    p.unlink()
                            else:
                                fresh = True
                        except OSError:
                            fresh = True
                    if fresh:
                        keeps_anything = True
                    elif not dry_run:
                        try:
                            batch_dir.rmdir()
                        except OSError:
                            keeps_anything = True
                if not keeps_anything:
                    batch_dirs_removed.append(f"batches/{prefix.name}")
                    if not dry_run:
                        try:
                            prefix.rmdir()
                        except OSError:
                            pass
        pruned_set = {self._path(key).name for key in pruned_keys}
        dirs_removed = []
        points = self.root / "points"
        if points.is_dir():
            for shard in sorted(points.iterdir()):
                if not shard.is_dir():
                    continue
                # count what a real run would leave behind, so the dry run
                # also reports directories this gc is about to empty
                remaining = [p for p in shard.iterdir() if p.name not in pruned_set]
                if not remaining:
                    dirs_removed.append(shard.name)
                    if not dry_run:
                        shard.rmdir()
        return {
            "root": str(self.root),
            "dry_run": dry_run,
            "older_than_seconds": older_than_seconds,
            "scanned": scanned,
            "pruned": len(pruned_keys),
            "kept": scanned - len(pruned_keys),
            "pruned_keys": pruned_keys,
            "batches_pruned": batches_pruned,
            "dirs_removed": dirs_removed + batch_dirs_removed,
        }

    def summary(self) -> dict:
        """Aggregate store statistics (for ``repro sweep status``)."""
        total = converged = not_applicable = 0
        shots = 0
        for rec in self.records():
            total += 1
            if rec.get("status") == "not_applicable":
                not_applicable += 1
            elif rec.get("converged"):
                converged += 1
            shots += int(rec.get("shots", 0))
        return {
            "root": str(self.root),
            "records": total,
            "converged": converged,
            "partial": total - converged - not_applicable,
            "not_applicable": not_applicable,
            "stored_shots": shots,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultStore({str(self.root)!r}, {len(self)} records)"


def default_store() -> "ResultStore | None":
    """The default store: ``REPRO_STORE_ROOT`` if set, else None."""
    root = os.environ.get("REPRO_STORE_ROOT")
    return ResultStore(root) if root else None
