"""Decode-kernel backends: the scalar reference and the C kernels.

The decoder layer's hot path — decoding the distinct-syndrome matrix of a
batch — runs through a *backend* (:class:`KernelBackend`), which may bind a
decoder to a whole-matrix kernel.  Every backend is **bit-identical** to
the scalar reference pass, so swapping backends can never change
experiment results, only their wall time.

The two backends (see :mod:`.backends`):

========  ==============================================================
name      strategy
========  ==============================================================
python    the scalar per-syndrome pass, always available (the fallback)
cext      stock union-find decoded by a scalar C kernel (:mod:`.cext`,
          ``uf.c`` built on first use with the system compiler), and the
          batched predecoded, hierarchical and MWPM kernels of
          :mod:`.batched_wrappers`; degrades to ``python`` without a
          compiler
========  ==============================================================

Batches reach the kernels on the packed syndrome data plane (:mod:`.plane`:
``uint64`` detector words, C dart-XOR and hash dedup from the same ``uf.c``
build, numpy fallbacks).  A kernel with a ``decode_packed`` method (the
``cext`` union-find) reads the words; every other kernel gets the distinct
rows unpacked to bool.

Backends advertise *capability flags* (``KernelBackend.capabilities``: the
decoder families they can bind — ``unionfind``, ``predecoded``,
``hierarchical``, ``mwpm``); :func:`capabilities` reports the resolved
backend's flags so orchestration layers (e.g. sharded LER runs) can record
which fast paths were live.

Selection precedence, resolved by :func:`resolve`:

1. an explicit backend name (CLI ``--decode-backend``, or the ``backend=``
   argument threaded through ``decode_batch`` / ``run_surgery_ler`` /
   ``SweepSpec``; the experiments layer defaults it from
   ``repro.experiments.ler.DECODE_DEFAULTS``),
2. the ``REPRO_DECODE_BACKEND`` environment variable,
3. ``auto`` — ``cext`` when it is available, else ``python``.

An unavailable backend degrades along its ``fallback`` chain (``cext`` ->
``python``), so naming ``cext`` on a host without a compiler still decodes
correctly; the degradation is announced by a single ``RuntimeWarning`` per
process naming the backend that actually resolved (so CI logs show which
kernel ran the parity matrix).  Full catalogue and knobs:
``docs/DECODERS.md``.
"""

from __future__ import annotations

import os
import warnings

from .backends import CextBackend, PythonBackend
from .base import KernelBackend
from .batched_wrappers import BatchedHierarchical, BatchedMWPM, BatchedPredecode

__all__ = [
    "KernelBackend",
    "PythonBackend",
    "CextBackend",
    "BatchedPredecode",
    "BatchedHierarchical",
    "BatchedMWPM",
    "names",
    "available",
    "get",
    "resolve",
    "bind",
    "capabilities",
    "AUTO_ORDER",
]

#: preference order of the ``auto`` backend (first available wins)
AUTO_ORDER = ("cext", "python")

_REGISTRY: dict[str, KernelBackend] = {
    backend.name: backend for backend in (CextBackend(), PythonBackend())
}

#: (requested, resolved) pairs already warned about — fallback degradation
#: is announced once per process so CI logs show which backend actually ran
#: without drowning a sweep's worth of resolve() calls in repeats
_FALLBACK_WARNED: set[tuple[str, str]] = set()


def names() -> list[str]:
    """All backend names (sorted)."""
    return sorted(_REGISTRY)


def available() -> list[str]:
    """Names of the backends whose dependencies are importable right now."""
    return [n for n in sorted(_REGISTRY) if _REGISTRY[n].available()]


def get(name: str) -> KernelBackend:
    """The registered backend of that exact name (no fallback resolution)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown decode backend {name!r}; known: {', '.join(names())}"
        ) from None


def resolve(name: str | None = None) -> KernelBackend:
    """Resolve a backend name to a usable backend.

    ``None`` consults ``REPRO_DECODE_BACKEND`` and then ``auto``; ``auto``
    picks the first available of :data:`AUTO_ORDER`; an explicit but
    unavailable backend walks its ``fallback`` chain, announcing the
    degradation with one ``RuntimeWarning`` per process that names the
    backend actually used (results are bit-identical regardless).
    """
    if name is None:
        name = os.environ.get("REPRO_DECODE_BACKEND") or "auto"
    if name == "auto":
        for candidate in AUTO_ORDER:
            if _REGISTRY[candidate].available():
                return _REGISTRY[candidate]
        return get("python")
    backend = get(name)
    seen = {backend.name}
    while not backend.available() and backend.fallback:
        backend = get(backend.fallback)
        if backend.name in seen:  # pragma: no cover - defensive
            break
        seen.add(backend.name)
    if backend.name != name and (name, backend.name) not in _FALLBACK_WARNED:
        # results are bit-identical either way, so this is informational —
        # but CI logs must show which backend actually ran the suite
        _FALLBACK_WARNED.add((name, backend.name))
        warnings.warn(
            f"decode backend {name!r} is unavailable (missing dependency); "
            f"falling back to {backend.name!r} — results are bit-identical, "
            "only throughput differs",
            RuntimeWarning,
            stacklevel=2,
        )
    return backend


def bind(decoder, name: str | None = None):
    """Bind ``decoder`` under the resolved backend; None means scalar pass."""
    return resolve(name).bind(decoder)


def capabilities(name: str | None = None) -> frozenset:
    """Capability flags of the *resolved* backend.

    Resolution (env defaults, fallback chains) happens first, so asking for
    an unavailable backend reports the flags of the backend actually used —
    which is what orchestration layers stamp into their run records.
    """
    return frozenset(resolve(name).capabilities)

