"""The two decode-kernel backends: ``python`` and ``cext``.

* ``python`` — the always-available fallback.  It binds nothing, which
  makes the dedup engine run the scalar per-syndrome pass unchanged.
* ``cext`` — binds whole-matrix kernels to every stock decoder family
  (capability flags ``unionfind``, ``predecoded``, ``hierarchical``,
  ``mwpm``):

  - :class:`~repro.decoders.unionfind.UnionFindDecoder` →
    :class:`~repro.decoders.kernels.cext.CextUnionFind`, a scalar C
    transcription of the decoder built on first use with the system
    compiler;
  - :class:`~repro.decoders.predecoder.PredecodedDecoder` →
    :class:`~repro.decoders.kernels.batched_wrappers.BatchedPredecode`,
    composing the vectorized local pass with the *inner* decoder's bound
    kernel so residual rows never leave matrix form;
  - :class:`~repro.decoders.hierarchical.HierarchicalDecoder` →
    :class:`~repro.decoders.kernels.batched_wrappers.BatchedHierarchical`
    (bulk LUT row-split, batched slow path);
  - :class:`~repro.decoders.mwpm.MWPMDecoder` →
    :class:`~repro.decoders.kernels.batched_wrappers.BatchedMWPM`
    (shared per-node Dijkstra rows, exact per-row blossom).

  Decoders it has no kernel for — and any subclass that overrides a
  decode-path method — fall back to their scalar pass.  Soft dependency:
  with no compiler, or a failing build, the backend reports unavailable
  and selection degrades to ``python`` — results are identical either way,
  and the registry warns once per process naming the backend that
  actually resolved.

Kernels are cached *on the decoder instance* (one slot per backend name),
so binding is cheap after the first call and a cached kernel never outlives
its decoder.
"""

from __future__ import annotations

from . import cext
from .base import KernelBackend
from .batched_wrappers import BatchedHierarchical, BatchedMWPM, BatchedPredecode

__all__ = ["PythonBackend", "CextBackend"]

#: the decode-path methods a stock ``UnionFindDecoder`` must not override
_UNIONFIND_PATH = ("decode", "_decode_one_defects", "_decode_defects", "_peel")


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


class PythonBackend(KernelBackend):
    """The scalar reference pass, wrapped as the always-available backend."""

    name = "python"

    def bind(self, decoder):
        """Bind nothing: every decoder keeps its scalar per-syndrome pass."""
        return None


class CextBackend(KernelBackend):
    """The C union-find kernel plus the batched wrapper kernels."""

    name = "cext"
    fallback = "python"
    capabilities = frozenset({"unionfind", "predecoded", "hierarchical", "mwpm"})

    def available(self) -> bool:
        """True when ``uf.c`` builds and loads; otherwise degrade to python."""
        return cext.library() is not None

    def bind(self, decoder):
        """A cached whole-matrix kernel for ``decoder``, or None (scalar)."""
        cache = getattr(decoder, "_bound_kernels", None)
        if cache is None:
            cache = {}
            try:
                decoder._bound_kernels = cache
            except AttributeError:  # pragma: no cover - slotted decoder
                pass
        kernel = cache.get(self.name)
        if kernel is None:
            kernel = self._make(decoder)
            if kernel is not None:
                cache[self.name] = kernel
        return kernel

    def _make(self, decoder):
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
            return BatchedPredecode(decoder, inner=self.bind(decoder.slow))
        if _is_stock(decoder, HierarchicalDecoder, ("decode",)):
            return BatchedHierarchical(decoder, inner=self.bind(decoder.slow))
        if _is_stock(
            decoder,
            MWPMDecoder,
            ("decode", "_decode_one_defects", "_decode_defects", "_match_defects"),
        ):
            return BatchedMWPM(decoder)
        return None
