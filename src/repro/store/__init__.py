"""Content-addressed experiment result store.

``repro.store`` persists LER sweep points under a configurable root so that
crashed, tweaked or re-invoked sweeps reuse every batch of shots already
decoded (the paper's evaluation took 128 cores x 5 days; losing completed
work to a crash is not an option at that scale).  Keys are stable content
hashes of configuration + policy + decoder + seed + code-version salt
(:mod:`repro.store.keys`); records are atomic JSON files
(:mod:`repro.store.backend`).  The sweep orchestrator that reads and writes
this store lives in :mod:`repro.experiments.sweeps`.
"""

from .backend import ResultStore, default_store
from .keys import (
    STORE_SALT,
    batch_entropy,
    config_payload,
    point_key,
    point_payload,
)

__all__ = [
    "ResultStore",
    "default_store",
    "STORE_SALT",
    "batch_entropy",
    "config_payload",
    "point_key",
    "point_payload",
]
