"""Experiment runners: LER pipelines, sweeps and statistics.

The paper's figures and tables are built from these by the figure registry
(:mod:`repro.figures`).
"""

from .ler import (
    LerResult,
    SurgeryLerConfig,
    prepared_pipeline,
    run_surgery_ler,
)
from .parallel import SweepTask
from .stats import RateEstimate, ratio_of_rates, wilson_interval
from .sweeps import PolicySpec, SweepReport, SweepSpec, run_sweep

__all__ = [
    "LerResult",
    "SurgeryLerConfig",
    "prepared_pipeline",
    "run_surgery_ler",
    "SweepTask",
    "RateEstimate",
    "ratio_of_rates",
    "wilson_interval",
    "PolicySpec",
    "SweepReport",
    "SweepSpec",
    "run_sweep",
]
