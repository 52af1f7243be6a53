"""End-to-end logical-error-rate experiments.

Glues the stack together: synchronization policy -> idle timelines ->
lattice-surgery circuit -> detector error model -> sampling -> decoding ->
LER per observable.  Detector error models and decoders are cached per
configuration (bounded LRU), so sweeps pay the circuit-analysis cost once.

:func:`run_surgery_ler` is a *streaming* pipeline: it samples, decodes and
accumulates failures one batch at a time through a
:class:`~repro.decoders.batch.BatchDecodingEngine` (syndrome dedup), so
memory stays bounded by ``batch_size`` even for million-shot runs.  It is
always serial; parallel decoding of many batches goes through the sweep
scheduler (:func:`repro.experiments.sweeps.run_sweep`), where every batch
is seeded by ``(seed, point key, batch index)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .._util import resolve_rng
from ..codes.surgery import SurgerySpec, surgery_experiment
from ..core.policies import SyncScenario, _BasePolicy, policy_fields
from ..decoders import kernels
from ..decoders.batch import BatchDecodingEngine
from ..decoders.graph import MatchingGraph, build_matching_graph
from ..decoders.mwpm import MWPMDecoder
from ..decoders.unionfind import UnionFindDecoder
from ..noise.hardware import HardwareConfig
from ..noise.models import NoiseModel
from ..stab.dem import circuit_to_dem, dem_walk
from ..stab.sampler import DemSampler
from .stats import RateEstimate

__all__ = [
    "SurgeryLerConfig",
    "LerResult",
    "run_surgery_ler",
    "prepared_pipeline",
    "pipeline_analysis_count",
    "clear_pipeline_cache",
    "BATCH_STAT_KEYS",
    "DECODER_BUILDERS",
]

#: process-wide LRU cache of analyzed configurations (bounded; see
#: ``PIPELINE_CACHE_SIZE``)
_PIPELINE_CACHE: "OrderedDict[tuple, _Pipeline]" = OrderedDict()

#: process-wide count of full circuit analyses (surgery synthesis + DEM
#: extraction) performed by this process.  The sweep scheduler reads it
#: around its own (coordinator-side) analyses, so a report can show that a
#: point was analyzed once however many threads decoded it (see
#: ``benchmarks/test_sweep_resume.py``).
PIPELINE_ANALYSES: int = 0


def pipeline_analysis_count() -> int:
    """Number of full circuit analyses this process has performed."""
    return PIPELINE_ANALYSES

#: maximum number of analyzed configurations kept alive at once
PIPELINE_CACHE_SIZE = 32

#: decode-stat counters that accumulate batch-by-batch into sweep records
#: (see LerResult.batch_stats)
BATCH_STAT_KEYS = (
    "batches",
    "distinct_syndromes",
    "decode_calls",
    "decode_seconds",
)

#: decoder-name registry used by every pipeline (serial runs and sweeps):
#: name -> builder(graph).  Names round-trip through SweepTask / SweepSpec /
#: store records as plain strings, so adding an entry here is all it takes
#: to open a decoder to the whole orchestration stack.
DECODER_BUILDERS: dict = {
    "unionfind": UnionFindDecoder,
    "mwpm": MWPMDecoder,
}


@dataclass(frozen=True)
class SurgeryLerConfig:
    """One point in a synchronization-policy LER sweep."""

    distance: int
    hardware: HardwareConfig
    policy_name: str
    tau_ns: float
    ls_basis: str = "Z"
    #: lagging patch cycle time; None means equal cycles (T_P' = T_P)
    t_pp_ns: float | None = None
    p: float = 1e-3
    #: pre-merge rounds; None means d+1
    base_rounds: int | None = None
    #: extra policy constructor arguments (eps_ns, placement, ...)
    policy_args: tuple = ()
    include_seam_detector: bool = False

    def resolved_base_rounds(self) -> int:
        """Pre-merge rounds (defaults to d+1)."""
        return self.distance + 1 if self.base_rounds is None else self.base_rounds


@dataclass
class LerResult:
    """Per-observable logical error rates for one configuration."""

    config: SurgeryLerConfig
    shots: int
    estimates: list[RateEstimate]
    plan_summary: dict = field(default_factory=dict)
    #: decode-engine statistics (present when run through run_surgery_ler)
    decode_stats: dict = field(default_factory=dict)

    @property
    def ler(self) -> list[float]:
        return [e.rate for e in self.estimates]

    def observable(self, index: int) -> RateEstimate:
        """The RateEstimate of one observable index."""
        return self.estimates[index]

    def batch_stats(self) -> dict:
        """JSON-safe accumulable counters of this run.

        The subset of ``decode_stats`` that sweep orchestration sums batch
        by batch into stored point records (:data:`BATCH_STAT_KEYS`), with
        numpy scalars coerced so the dict serializes as plain JSON.
        """
        out = {}
        for key in BATCH_STAT_KEYS:
            value = self.decode_stats.get(key, 0)
            out[key] = float(value) if key == "decode_seconds" else int(value)
        return out


def _synthesize(config: SurgeryLerConfig, policy: _BasePolicy):
    """Plan ``policy`` for ``config`` and build its lattice-surgery circuit."""
    noise = NoiseModel(hardware=config.hardware, p=config.p)
    scenario = SyncScenario(
        t_p_ns=config.hardware.cycle_time_ns,
        t_pp_ns=(
            config.t_pp_ns if config.t_pp_ns is not None else config.hardware.cycle_time_ns
        ),
        tau_ns=config.tau_ns,
        base_rounds=config.resolved_base_rounds(),
    )
    plan = policy.plan(scenario)
    spec = SurgerySpec(
        distance=config.distance,
        noise=noise,
        ls_basis=config.ls_basis,
        rounds_pre=None,  # timelines encode the per-patch round counts
        timeline_p=plan.timeline_p,
        timeline_pp=plan.timeline_pp,
        include_seam_detector=config.include_seam_detector,
    )
    return plan, surgery_experiment(spec)


class _Pipeline:
    """Cached circuit analysis: matching graph + sampler + decoder."""

    def __init__(self, config: SurgeryLerConfig, policy: _BasePolicy):
        # only the coordinator analyzes: sweep tasks carry their pipeline,
        # so no decode thread ever reaches this rebind
        global PIPELINE_ANALYSES  # lint: ok[contract-worker-globals]
        PIPELINE_ANALYSES += 1
        with obs.span("ler.analyze"):
            with obs.span("ler.analyze.circuit"):
                self.plan, self.artifacts = _synthesize(config, policy)
            with obs.span("ler.analyze.dem") as span:
                self.dem = dem = circuit_to_dem(self.artifacts.circuit)
                span.annotate(errors=dem.num_errors, walk=dem_walk())
            self.basis = basis = self.artifacts.detector_basis
            with obs.span("ler.analyze.graph"):
                self.graph: MatchingGraph = build_matching_graph(dem, basis=basis)
                self.sampler = DemSampler(dem)
            self._detector_mask = np.array(
                [b == basis for b in dem.detector_basis], dtype=bool
            )
            self._mask_is_identity = bool(self._detector_mask.all())
            #: the sampler over the graph's detectors only: its packed rows
            #: go straight to the decoder, never through full-width rows
            self.graph_sampler = self.sampler.projected(self._detector_mask)
        self._decoders: dict[str, object] = {}

    def decoder(self, name: str):
        if name not in self._decoders:
            builder = DECODER_BUILDERS.get(name)
            if builder is None:
                raise ValueError(
                    f"unknown decoder {name!r}; known: "
                    f"{', '.join(sorted(DECODER_BUILDERS))}"
                )
            self._decoders[name] = builder(self.graph)
        return self._decoders[name]

    def mask_detectors(self, det: np.ndarray) -> np.ndarray:
        """Project full-DEM detector samples onto the matching graph's basis.

        Always applied explicitly — never inferred from a shape coincidence:
        the input must have one column per DEM detector, and the output has
        one column per graph detector.
        """
        det = np.asarray(det, dtype=bool)
        if det.ndim != 2 or det.shape[1] != self._detector_mask.size:
            raise ValueError(
                f"expected (shots, {self._detector_mask.size}) detector samples, "
                f"got shape {det.shape}"
            )
        return det if self._mask_is_identity else det[:, self._detector_mask]

    def plan_summary(self) -> dict:
        return {
            "policy": self.plan.policy,
            "extra_rounds_p": self.plan.extra_rounds_p,
            "extra_rounds_pp": self.plan.extra_rounds_pp,
            "idle_ns": self.plan.idle_ns,
            "rounds_p": self.plan.timeline_p.num_rounds,
            "rounds_pp": self.plan.timeline_pp.num_rounds,
        }


def _policy_cache_key(policy: _BasePolicy) -> tuple:
    """Stable cache key from the policy's type and public constructor fields.

    Replaces the old ``repr(vars(policy))`` key, which depended on dict
    insertion order and float repr quirks.
    """
    return (type(policy).__name__, policy_fields(policy))


def prepared_pipeline(config: SurgeryLerConfig, policy: _BasePolicy) -> _Pipeline:
    """Build (or fetch) the analyzed pipeline for ``config`` (bounded LRU)."""
    key = (config, _policy_cache_key(policy))
    pipe = _PIPELINE_CACHE.get(key)
    if pipe is None:
        pipe = _Pipeline(config, policy)
        _PIPELINE_CACHE[key] = pipe
    _PIPELINE_CACHE.move_to_end(key)
    while len(_PIPELINE_CACHE) > max(1, PIPELINE_CACHE_SIZE):
        _PIPELINE_CACHE.popitem(last=False)
    return pipe


def clear_pipeline_cache() -> None:
    """Drop all cached pipelines (mainly for tests and memory pressure)."""
    _PIPELINE_CACHE.clear()


def _count_failures(
    masks: np.ndarray, obs_words: np.ndarray, nobs: int, tracked: int
) -> np.ndarray:
    """Failures per observable: popcount of ``prediction ^ flip``, bit by bit.

    ``masks`` holds one predicted bitmask per shot over the graph's
    ``tracked`` observables; an observable past those (or past 64) is never
    predicted, so its failures are its flips.
    """
    if nobs == 0:
        return np.zeros(0, dtype=np.int64)
    keep = np.uint64((1 << min(tracked, nobs, 64)) - 1)
    wrong = obs_words[:, 0] ^ (masks & keep)
    return np.array(
        [
            np.count_nonzero(
                (wrong if k < 64 else obs_words[:, k >> 6]) & np.uint64(1 << (k & 63))
            )
            for k in range(nobs)
        ],
        dtype=np.int64,
    )


def run_surgery_ler(
    config: SurgeryLerConfig,
    policy: _BasePolicy,
    shots: int,
    rng: np.random.Generator | int | None = None,
    *,
    decoder: str = "unionfind",
    batch_size: int = 65536,
    dedup: bool = True,
    decode_workers: int = 1,
    pipeline: "_Pipeline | None" = None,
) -> LerResult:
    """Sample and decode ``shots`` shots of one configuration, streaming.

    Batches of at most ``batch_size`` shots are sampled, decoded and reduced
    to failure counts immediately, so peak memory is independent of
    ``shots``.  The host picks the decode path (:mod:`repro.decoders.kernels`:
    the C kernels when they load, else the scalar pass; bit-identical), and
    ``decode_stats["backend"]`` names the one that ran.  ``decode_workers``
    must be 1: to decode on a thread pool, run the configuration as a sweep
    point with ``run_sweep(workers=N)``.

    ``pipeline`` injects a pre-analyzed pipeline (from
    :func:`prepared_pipeline`), so a sweep's decode thread never analyzes a
    circuit or touches the pipeline LRU.  Several threads may run this
    function on one shared pipeline at once: each run keeps its own engine.
    """
    if decode_workers != 1:
        raise ValueError(
            f"decode_workers={decode_workers!r}: run_surgery_ler decodes "
            "serially; use run_sweep(workers=N) to decode on a thread pool"
        )
    rng = resolve_rng(rng)
    pipe = pipeline if pipeline is not None else prepared_pipeline(config, policy)
    decoder_obj = pipe.decoder(decoder)
    engine = BatchDecodingEngine(decoder_obj, dedup=dedup)
    nobs = pipe.dem.num_observables
    tracked = decoder_obj.graph.num_observables
    failures = np.zeros(nobs, dtype=np.int64)
    batches = pipe.graph_sampler.packed_batches(shots, rng, batch_size=batch_size)
    while True:
        # the generator samples lazily inside next(): the span brackets the
        # actual sampling work, not the decode that follows
        with obs.span("ler.sample"):
            item = next(batches, None)
        if item is None:
            break
        det_words, obs_words = item
        masks = engine.decode_words(det_words)
        failures += _count_failures(masks, obs_words, nobs, tracked)
    estimates = [RateEstimate(int(failures[k]), shots) for k in range(nobs)]
    stats = engine.stats
    decode_stats = {
        "backend": kernels.backend(),
        "batches": stats.batches,
        "distinct_syndromes": stats.distinct_syndromes,
        "decode_calls": stats.decode_calls,
        "dedup_hit_rate": stats.dedup_hit_rate,
        "decode_seconds": stats.decode_seconds,
    }
    return LerResult(
        config=config,
        shots=shots,
        estimates=estimates,
        plan_summary=pipe.plan_summary(),
        decode_stats=decode_stats,
    )
