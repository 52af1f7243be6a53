"""The C decode path: ``uf.c`` built on first use, bound via ctypes.

``uf.c`` (shipped next to this module) is a per-row transcription of
:class:`~repro.decoders.unionfind.UnionFindDecoder`'s growth and peel in
plain C, over bit-packed ``uint64`` rows; it also carries the
packed data plane's dart-XOR and row-dedup helpers (:mod:`.plane`) and
the backward DEM walk of :func:`repro.stab.dem.circuit_to_dem`.
:func:`library` compiles it once per source/flags/compiler combination
with the system compiler (``cc -O2 -ffp-contract=off -pthread -shared
-fPIC``; no ``-march=native``, so a cached build runs on any host sharing
the cache, and no fused multiply-adds, so the DEM walk's probabilities are
bit-identical to Python's) and loads it with :mod:`ctypes`:

* builds are cached under ``~/.cache/repro/kernels/<key>.so``, where
  ``key`` is the first 16 hex digits of sha256(source, flags,
  ``cc --version``) — a source edit or compiler upgrade builds afresh;
* a build is written to a temporary file in the cache directory and moved
  into place with :func:`os.replace`, so concurrent workers never load a
  half-written library;
* when the cache directory is not writable the library is built into a
  per-process temporary directory instead (removed right after loading);
* with no ``cc`` on ``PATH``, or a failing compile, :func:`library`
  returns None and every decoder runs its scalar pass
  (:func:`repro.decoders.kernels.bind` binds nothing).

:class:`CextUnionFind` is stateless between calls: the C kernel allocates
its scratch per call and ctypes releases the GIL around it, so one kernel
may decode from several threads at once.  Each call decodes its rows on
:func:`decode_threads` threads (one per 256 rows, at most one per usable
CPU), which take :data:`CHUNK_ROWS` rows at a time from one shared counter
rather than one contiguous range each, so rows of unequal cost cannot
leave one thread waiting on another; rows are independent, so the masks
never depend on that count.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "SOURCE",
    "CFLAGS",
    "cache_dir",
    "build",
    "library",
    "usable_cpus",
    "decode_threads",
    "CextUnionFind",
]

#: the C source of the kernel, shipped as package data
SOURCE = Path(__file__).with_name("uf.c")
#: compiler flags: portable (no -march=native), so cached builds are shareable;
#: -ffp-contract=off forbids fused multiply-adds (GCC contracts by default on
#: aarch64), which would break the DEM walk's bit-exact probabilities;
#: -pthread links the threads uf_decode_packed splits its rows across
CFLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
#: distinct rows per kernel thread: a smaller call decodes on one thread
ROWS_PER_THREAD = 256
#: the most threads one call uses (``UF_MAX_THREADS`` in ``uf.c``)
MAX_THREADS = 64
#: rows a kernel thread takes per turn at the shared counter (``UF_CHUNK_ROWS``)
CHUNK_ROWS = 32

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: the exported functions: name -> (restype, argtypes)
_EXPORTS = {
    # (n_rows, words, n_words, n_nodes, n_edges, indptr, eids, eu, ev, w,
    #  eobs, boundary, max_rounds, n_threads, out)
    "uf_decode_packed": (
        ctypes.c_int,
        [_I64, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _I64,
         _PTR],
    ),
    # (n_err, counts, rows, ptr, word_idx, word_bits, n_words, out)
    "plane_xor_darts": (None, [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _PTR]),
    # (n_rows, words, n_words, inverse, first) -> n_groups
    "plane_dedup": (_I64, [_I64, _PTR, _I64, _PTR, _PTR]),
    # (n_ops, ops, tptr, targets, cptr, cview, cprob, n_qubits, n_meas, rptr,
    #  rword, rbits, n_words, n_groups, n_bits) -> block for dem_free
    "dem_walk": (_PTR, [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR,
                        _PTR, _I64, _PTR, _PTR]),
    "dem_free": (None, [_PTR]),
}


def cache_dir() -> Path:
    """Directory holding the compiled kernels, keyed by source and compiler."""
    return Path.home() / ".cache" / "repro" / "kernels"


def _run(cmd: list[str]) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    except (OSError, subprocess.SubprocessError):
        return None


def _load(path: Path):
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _EXPORTS.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:  # a foreign build: treat as unloadable
            raise OSError(f"{path} does not export {name}") from exc
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def _build_private(cc: str, source: Path):
    """Build and load in a per-process temporary directory, then remove it."""
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as tmp:
        target = Path(tmp) / "uf.so"
        if _run([cc, *CFLAGS, "-o", str(target), str(source)]) is None:
            return None
        try:
            return _load(target)  # the mapping outlives the deleted file
        except OSError:
            return None


def build(source: Path = SOURCE, cache: Path | None = None):
    """Compile (or reuse a cached build of) ``source`` and load it.

    Returns the loaded :class:`ctypes.CDLL`, or None when there is no
    compiler, the source is unreadable, or the compile fails.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    version = _run([cc, "--version"])
    if version is None:
        return None
    try:
        text = Path(source).read_bytes()
    except OSError:
        return None
    digest = hashlib.sha256(text)
    digest.update(" ".join(CFLAGS).encode())
    digest.update(version.stdout.encode())
    key = digest.hexdigest()[:16]
    cache = cache_dir() if cache is None else Path(cache)
    target = cache / f"{key}.so"
    if target.is_file():
        try:
            return _load(target)
        except OSError:
            pass  # a damaged cache entry: rebuild it below
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=f".{key}-", suffix=".so")
        os.close(fd)
    except OSError:
        return _build_private(cc, source)
    try:
        if _run([cc, *CFLAGS, "-o", tmp, str(source)]) is None:
            return None
        os.replace(tmp, target)
    except OSError:
        return _build_private(cc, source)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    try:
        return _load(target)
    except OSError:
        return None


@functools.lru_cache(maxsize=None)
def library():
    """The process-wide build of :data:`SOURCE`, or None when it cannot be built."""
    return build(SOURCE)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, else the CPU count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


def decode_threads(rows: int) -> int:
    """Threads one :meth:`CextUnionFind.decode_packed` call of ``rows`` rows uses."""
    return max(1, min(usable_cpus(), rows // ROWS_PER_THREAD, MAX_THREADS))


class CextUnionFind:
    """Whole-matrix decode kernel for one ``UnionFindDecoder``, in C.

    Bit-identical to the decoder's scalar pass (same graph, same integer
    weights, same ``max_rounds`` cap) for any thread count; safe to call
    concurrently.
    """

    def __init__(self, decoder):
        lib = library()
        if lib is None:
            raise RuntimeError(
                "the C union-find kernel is unavailable (no `cc` on PATH, or "
                "the build failed)"
            )
        graph = decoder.graph
        indptr, eids = graph.adjacency()
        self.graph = graph
        self._lib = lib
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._eids = np.ascontiguousarray(eids, dtype=np.int64)
        self._eu = np.ascontiguousarray(graph.edge_u, dtype=np.int64)
        self._ev = np.ascontiguousarray(graph.edge_v, dtype=np.int64)
        self._w = np.ascontiguousarray(decoder._weights, dtype=np.int64)
        self._eobs = np.ascontiguousarray(graph.edge_obs, dtype=np.uint64)
        self._max_rounds = 4 * (graph.num_edges + 2)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        return self.decode_rows(rows)

    def decode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Observable bitmask per row of a ``(n, num_detectors)`` bool matrix.

        Packs the rows and runs :meth:`decode_packed`.
        """
        from .plane import pack_words  # deferred: plane imports this module

        rows = np.asarray(rows, dtype=bool)
        num_detectors = self.graph.num_detectors
        if rows.ndim != 2 or rows.shape[1] != num_detectors:
            raise ValueError(
                f"expected (n, {num_detectors}) detector rows, got shape {rows.shape}"
            )
        return self.decode_packed(pack_words(rows))

    def decode_packed(self, words: np.ndarray) -> np.ndarray:
        """Observable bitmask per row of bit-packed detector words (:mod:`.plane`).

        The rows are decoded on :func:`decode_threads` threads, which take
        :data:`CHUNK_ROWS` rows at a time until none is left.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        n_words = (self.graph.num_detectors + 63) // 64
        if words.ndim != 2 or words.shape[1] != n_words:
            raise ValueError(
                f"expected (n, {n_words}) detector words, got shape {words.shape}"
            )
        out = np.zeros(words.shape[0], dtype=np.uint64)
        if words.shape[0] == 0:
            return out
        status = self._lib.uf_decode_packed(
            words.shape[0], words.ctypes.data, n_words,
            self.graph.num_detectors + 1, self._w.size,
            self._indptr.ctypes.data, self._eids.ctypes.data,
            self._eu.ctypes.data, self._ev.ctypes.data, self._w.ctypes.data,
            self._eobs.ctypes.data, self.graph.boundary_node, self._max_rounds,
            decode_threads(words.shape[0]), out.ctypes.data,
        )
        if status != 0:
            raise MemoryError("the C union-find kernel could not allocate its scratch")
        return out
