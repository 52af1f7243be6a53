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
# a leftover commit-ahead batch log (written by older schedulers)
# ---------------------------------------------------------------------------


def test_clear_removes_batches_and_orphans(tmp_path):
    """Older schedulers kept a per-batch log under ``batches/``; nothing
    reads it now, and ``clear`` removes the whole tree, orphans included."""
    store = ResultStore(tmp_path)
    key, orphan = _key(), _key(seed=99)
    store.put(key, {"shots": 100})
    for k in (key, orphan):  # the orphan has no point record
        batch_dir = tmp_path / "batches" / k[:2] / k
        batch_dir.mkdir(parents=True)
        (batch_dir / "0.json").write_text('{"shots": 100, "failures": [1]}')
    assert store.clear() == 1
    assert not (tmp_path / "batches").exists()
    assert store.keys() == []
    assert store.clear() == 0  # a store without the tree clears too


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
