"""Decode kernels: the C kernels when the host builds them, else the scalar pass.

The decoder layer's hot path — decoding the distinct-syndrome matrix of a
batch — runs through a whole-matrix kernel that :func:`bind` attaches to a
decoder.  The host picks the path: when :func:`cext.library` loads (``uf.c``
built on first use with the system compiler), every stock decoder family
gets a kernel:

* stock union-find → :class:`~.cext.CextUnionFind`, a scalar C
  transcription of the decoder;
* the predecoder → :class:`BatchedPredecode`, composing the vectorized
  local pass with the *inner* decoder's bound kernel, so residual rows
  never leave matrix form;
* the hierarchical decoder → :class:`BatchedHierarchical` (bulk LUT
  row-split, batched slow path);
* MWPM → :class:`BatchedMWPM` (shared per-node Dijkstra rows, exact
  per-row blossom).

Without a C library :func:`bind` returns None and every decoder runs its
scalar per-syndrome pass.  Both paths are **bit-identical**, so the host
changes wall time, never predictions; :func:`backend` names the path in use
(``"cext"`` or ``"python"``) and ``LerResult.decode_stats["backend"]``
records it.  The parity matrix in ``tests/test_kernels.py`` compares the
host path with the scalar pass (docs/DECODERS.md).

Batches reach the kernels on the packed syndrome data plane (:mod:`.plane`:
``uint64`` detector words, C dart-XOR and hash dedup from the same ``uf.c``
build, numpy fallbacks).  A kernel with a ``decode_packed`` method (the C
union-find) reads the words; every other kernel gets the distinct rows
unpacked to bool.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import cext
from .batched_wrappers import BatchedHierarchical, BatchedMWPM, BatchedPredecode

__all__ = [
    "BatchedPredecode",
    "BatchedHierarchical",
    "BatchedMWPM",
    "backend",
    "bind",
    "resolve",
]

#: the decode-path methods a stock ``UnionFindDecoder`` must not override
_UNIONFIND_PATH = ("decode", "_decode_one_defects", "_decode_defects", "_peel")


def backend() -> str:
    """The decode path this host runs: ``"cext"`` or ``"python"``."""
    return "python" if cext.library() is None else "cext"


def resolve(name: str = "auto") -> SimpleNamespace:
    """The path this host runs, as ``resolve("auto").name``; ``name`` is ignored.

    Kept only because the repo benchmark (``perfbench/harness.py``) prints
    ``resolve("auto").name`` in its provenance line; use :func:`backend`.
    """
    return SimpleNamespace(name=backend())


def bind(decoder):
    """A cached whole-matrix kernel for ``decoder``, or None (scalar pass).

    None when no C library loads, for decoders without a kernel, and for any
    subclass that overrides a decode-path method.  The kernel is cached on
    the decoder instance, so binding is cheap after the first call and a
    kernel never outlives its decoder.
    """
    if cext.library() is None:
        return None
    kernel = getattr(decoder, "_bound_kernel", None)
    if kernel is None:
        kernel = _make(decoder)
        if kernel is not None:
            try:
                decoder._bound_kernel = kernel
            except AttributeError:  # pragma: no cover - slotted decoder
                pass
    return kernel


def _is_stock(decoder, base, attrs: tuple[str, ...]) -> bool:
    """True when ``decoder`` is a ``base`` whose decode path is unmodified.

    A subclass that overrides any decode-path method (e.g. to count calls
    or keep statistics) keeps its scalar pass — a bound kernel would
    silently bypass the override.
    """
    if not isinstance(decoder, base):
        return False
    cls = type(decoder)
    return all(getattr(cls, attr) is getattr(base, attr) for attr in attrs)


def _make(decoder):
    from ..hierarchical import HierarchicalDecoder
    from ..mwpm import MWPMDecoder
    from ..predecoder import PredecodedDecoder
    from ..unionfind import UnionFindDecoder

    if _is_stock(decoder, UnionFindDecoder, _UNIONFIND_PATH):
        return cext.CextUnionFind(decoder)
    if _is_stock(decoder, PredecodedDecoder, ("decode", "_decode_one", "_decode_rows")):
        # compose predecode-kernel -> inner-decoder kernel: residual rows
        # flow to the wrapped decoder's own bound kernel (or its scalar
        # decode when that decoder has none)
        return BatchedPredecode(decoder, inner=bind(decoder.slow))
    if _is_stock(decoder, HierarchicalDecoder, ("decode",)):
        return BatchedHierarchical(decoder, inner=bind(decoder.slow))
    if _is_stock(
        decoder,
        MWPMDecoder,
        ("decode", "_decode_one_defects", "_decode_defects", "_match_defects"),
    ):
        return BatchedMWPM(decoder)
    return None
