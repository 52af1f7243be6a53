"""Experiment runners: LER pipelines, sweeps, statistics, figure data."""

from .ler import (
    LerResult,
    PipelinePayload,
    SurgeryLerConfig,
    pipeline_payload,
    prepared_pipeline,
    run_surgery_ler,
)
from .parallel import SweepTask
from .stats import RateEstimate, ratio_of_rates, wilson_interval
from .sweeps import PolicySpec, SweepReport, SweepSpec, ensure_point, run_sweep

__all__ = [
    "LerResult",
    "PipelinePayload",
    "SurgeryLerConfig",
    "pipeline_payload",
    "prepared_pipeline",
    "run_surgery_ler",
    "SweepTask",
    "RateEstimate",
    "ratio_of_rates",
    "wilson_interval",
    "PolicySpec",
    "SweepReport",
    "SweepSpec",
    "ensure_point",
    "run_sweep",
]
