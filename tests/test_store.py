"""Result-store tests: round-trips, atomicity, key stability across processes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.ler import SurgeryLerConfig
from repro.noise import GOOGLE, IBM
from repro.store import (
    STORE_SALT,
    ResultStore,
    batch_entropy,
    default_store,
    point_key,
    point_payload,
)


def _config(**kwargs):
    base = dict(distance=3, hardware=GOOGLE, policy_name="passive", tau_ns=500.0)
    base.update(kwargs)
    return SurgeryLerConfig(**base)


def _key(config=None, **kwargs):
    args = dict(decoder="unionfind", seed=7, batch_shots=1000)
    args.update(kwargs)
    return point_key(config or _config(), "passive", (), **args)


# ---------------------------------------------------------------------------
# backend round-trips
# ---------------------------------------------------------------------------


def test_store_put_get_roundtrip(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    assert store.get(key) is None
    assert key not in store
    record = {"shots": 1000, "failures": [3, 5], "converged": False}
    store.put(key, record)
    assert key in store
    got = store.get(key)
    assert got["shots"] == 1000
    assert got["failures"] == [3, 5]
    assert got["key"] == key  # stamped on write
    assert len(store) == 1
    assert store.keys() == [key]


def test_store_overwrite_and_delete(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    store.put(key, {"shots": 1})
    store.put(key, {"shots": 2})
    assert store.get(key)["shots"] == 2
    assert store.delete(key)
    assert not store.delete(key)
    assert store.get(key) is None


def test_store_sharded_layout_and_clear(tmp_path):
    store = ResultStore(tmp_path)
    keys = [_key(seed=s) for s in range(5)]
    for k in keys:
        store.put(k, {"shots": 0})
    for k in keys:
        assert (Path(tmp_path) / "points" / k[:2] / f"{k}.json").exists()
    assert sorted(store.keys()) == sorted(keys)
    assert store.clear() == 5
    assert len(store) == 0


def test_store_rejects_malformed_keys(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(ValueError):
        store.get("../../etc/passwd")
    with pytest.raises(ValueError):
        store.put("zz", {})


def test_store_records_iteration_and_summary(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_key(seed=1), {"shots": 100, "converged": True})
    store.put(_key(seed=2), {"shots": 50, "converged": False})
    store.put(_key(seed=3), {"shots": 0, "status": "not_applicable"})
    assert len(list(store.records())) == 3
    summary = store.summary()
    assert summary["records"] == 3
    assert summary["converged"] == 1
    assert summary["partial"] == 1
    assert summary["not_applicable"] == 1
    assert summary["stored_shots"] == 150


def test_default_store_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE_ROOT", raising=False)
    assert default_store() is None
    monkeypatch.setenv("REPRO_STORE_ROOT", str(tmp_path))
    assert default_store().root == Path(tmp_path)


# ---------------------------------------------------------------------------
# commit-ahead batch records (the speculative scheduler's log)
# ---------------------------------------------------------------------------


def test_batch_records_roundtrip_and_ordering(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    assert store.get_batch(key, 0) is None
    assert store.batch_indices(key) == []
    for index in (2, 0, 1):
        store.put_batch(key, index, {"shots": 500, "failures": [index]})
    assert store.batch_indices(key) == [0, 1, 2]
    got = store.get_batch(key, 2)
    assert got["shots"] == 500
    assert got["failures"] == [2]
    assert got["index"] == 2 and got["key"] == key  # stamped on write
    # overwriting is allowed (batch contents are deterministic per size)
    store.put_batch(key, 2, {"shots": 1000, "failures": [9]})
    assert store.get_batch(key, 2)["shots"] == 1000
    with pytest.raises(ValueError):
        store.put_batch(key, -1, {"shots": 1})
    with pytest.raises(ValueError):
        store.put_batch("zz", 0, {"shots": 1})


def test_delete_batches_below_keeps_speculative_overshoot(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    for index in range(4):
        store.put_batch(key, index, {"shots": 500, "failures": []})
    assert store.delete_batches(key, below=2) == 2
    assert store.batch_indices(key) == [2, 3]
    assert store.delete_batches(key) == 2
    assert store.batch_indices(key) == []
    # the emptied per-key dir is gone too
    assert not (tmp_path / "batches" / key[:2] / key).exists()


def test_get_batch_tolerates_corrupt_records(tmp_path):
    # batch records are derived data; a truncated write must read as
    # "absent" (re-decode) rather than crash the resume
    store = ResultStore(tmp_path)
    key = _key()
    store.put_batch(key, 0, {"shots": 100, "failures": [1]})
    path = tmp_path / "batches" / key[:2] / key / "0.json"
    path.write_text('{"shots": 100, "failu')  # truncated mid-write
    assert store.get_batch(key, 0) is None
    # overwriting repairs it
    store.put_batch(key, 0, {"shots": 100, "failures": [2]})
    assert store.get_batch(key, 0)["failures"] == [2]


def test_clear_removes_batches_and_orphans(tmp_path):
    store = ResultStore(tmp_path)
    key, orphan = _key(), _key(seed=99)
    store.put(key, {"shots": 100})
    store.put_batch(key, 0, {"shots": 100, "failures": [1]})
    store.put_batch(orphan, 0, {"shots": 100, "failures": [0]})  # no record
    assert store.clear() == 1
    assert store.batch_indices(key) == []
    assert store.batch_indices(orphan) == []
    # emptied per-prefix dirs are gone too, not just the per-key dirs
    assert not any((tmp_path / "batches").glob("??"))


def test_gc_prunes_batches_with_their_point_and_orphans(tmp_path):
    import os as _os

    store = ResultStore(tmp_path)
    stale, fresh, orphan = _key(seed=1), _key(seed=2), _key(seed=3)
    store.put(stale, {"shots": 1, "updated_at": 1.0})
    store.put_batch(stale, 0, {"shots": 1, "failures": []})
    store.put(fresh, {"shots": 1})  # mtime now: survives
    store.put_batch(fresh, 0, {"shots": 1, "failures": []})
    store.put_batch(orphan, 0, {"shots": 1, "failures": []})
    _os.utime(tmp_path / "batches" / orphan[:2] / orphan / "0.json", (1.0, 1.0))

    preview = store.gc(older_than_seconds=30 * 86400, dry_run=True)
    assert preview["pruned_keys"] == [stale]
    assert preview["batches_pruned"] == 2  # stale's batch + the old orphan
    assert store.batch_indices(stale) == [0]  # dry run touched nothing
    assert store.batch_indices(orphan) == [0]
    # the dry run predicts which batches/ prefix dirs the prune will empty
    for key in (stale, orphan):
        if key[:2] != fresh[:2]:
            assert f"batches/{key[:2]}" in preview["dirs_removed"]
    assert f"batches/{fresh[:2]}" not in preview["dirs_removed"]

    result = store.gc(older_than_seconds=30 * 86400)
    assert result["batches_pruned"] == 2
    assert store.batch_indices(stale) == []
    assert store.batch_indices(orphan) == []
    assert store.batch_indices(fresh) == [0]  # fresh point keeps its log
    for key in (stale, orphan):
        if key[:2] != fresh[:2]:
            assert not (tmp_path / "batches" / key[:2]).exists()
    assert (tmp_path / "batches" / fresh[:2]).exists()


# ---------------------------------------------------------------------------
# content-addressed keys
# ---------------------------------------------------------------------------


def test_point_key_sensitivity():
    base = _key()
    assert _key() == base  # deterministic
    assert _key(_config(distance=5)) != base
    assert _key(_config(hardware=IBM)) != base
    assert _key(_config(p=2e-3)) != base
    assert _key(decoder="mwpm") != base
    assert _key(seed=8) != base
    assert _key(batch_shots=2000) != base
    assert point_key(_config(), "active", (), decoder="unionfind", seed=7, batch_shots=1000) != base
    assert (
        point_key(
            _config(),
            "passive",
            (("eps_ns", 100.0),),
            decoder="unionfind",
            seed=7,
            batch_shots=1000,
        )
        != base
    )
    assert _key(salt=STORE_SALT + "-next") != base


def test_point_payload_is_json_canonical():
    payload = point_payload(
        _config(), "passive", (), decoder="unionfind", seed=7, batch_shots=1000
    )
    # round-trips through JSON without loss (the property the hash relies on)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_point_key_stable_across_processes():
    """The key must not depend on PYTHONHASHSEED or interpreter state."""
    prog = (
        "from repro.experiments.ler import SurgeryLerConfig\n"
        "from repro.noise import GOOGLE\n"
        "from repro.store import point_key\n"
        "cfg = SurgeryLerConfig(distance=3, hardware=GOOGLE,"
        " policy_name='passive', tau_ns=500.0)\n"
        "print(point_key(cfg, 'passive', (('eps_ns', 100.0),),"
        " decoder='unionfind', seed=7, batch_shots=1000))\n"
    )
    keys = set()
    for hashseed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", prog],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
            },
            check=True,
        )
        keys.add(out.stdout.strip())
    in_process = point_key(
        _config(),
        "passive",
        (("eps_ns", 100.0),),
        decoder="unionfind",
        seed=7,
        batch_shots=1000,
    )
    assert keys == {in_process}


def test_batch_entropy_is_pure():
    key = _key()
    assert batch_entropy(7, key, 0) == batch_entropy(7, key, 0)
    assert batch_entropy(7, key, 0) != batch_entropy(7, key, 1)
    assert batch_entropy(8, key, 0) != batch_entropy(7, key, 0)
    entropy, spawn_key = batch_entropy(7, key, 3)
    assert entropy == 7
    assert spawn_key[1] == 3
