"""Workload layer: logical circuits, QASM parsing, resource estimation."""

from .generators import (
    PAPER_WORKLOADS,
    build_workload,
    ghz,
    ising,
    multiplier,
    qft,
    qpe,
    shor,
    wstate,
)
from .ir import CLIFFORD_GATES, LogicalCircuit, LogicalGate
from .qasm import QasmError, parse_qasm
from .resources import ResourceEstimate, estimate_resources, t_count_for_rotation
from .sync_estimate import (
    WorkloadSyncEstimate,
    max_concurrent_cnots,
    program_ler_increase,
    syncs_per_cycle_table,
)

__all__ = [
    "PAPER_WORKLOADS",
    "build_workload",
    "ghz",
    "ising",
    "multiplier",
    "qft",
    "qpe",
    "shor",
    "wstate",
    "CLIFFORD_GATES",
    "LogicalCircuit",
    "LogicalGate",
    "QasmError",
    "parse_qasm",
    "ResourceEstimate",
    "estimate_resources",
    "t_count_for_rotation",
    "WorkloadSyncEstimate",
    "max_concurrent_cnots",
    "program_ler_increase",
    "syncs_per_cycle_table",
]
