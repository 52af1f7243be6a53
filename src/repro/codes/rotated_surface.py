"""Single-patch rotated-surface-code memory experiments.

Generates the standard memory circuit: initialize a patch in the X or Z
basis, run ``rounds`` syndrome-generation rounds under circuit-level noise,
then measure all data transversally.  Detectors are annotated for the basis
that protects the stored logical (the standard CSS decoding setup); the
logical observable is a vertical-logical column.

Used directly for Fig. 7(a), Fig. 18(b), and as the schedule-correctness
fixture for the fault-distance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..noise.models import NoiseModel
from ..stab.circuit import Circuit
from ..timing.schedule import PatchTimeline
from .layout import PatchLayout, QubitRegistry
from .rounds import StabilizerRoundEmitter

__all__ = ["MemoryArtifacts", "memory_experiment"]


@dataclass
class MemoryArtifacts:
    """Circuit plus the geometry metadata tests and decoders need."""

    circuit: Circuit
    layout: PatchLayout
    registry: QubitRegistry
    detector_basis: str


def memory_experiment(
    distance: int,
    rounds: int,
    noise: NoiseModel,
    *,
    basis: str = "Z",
    timeline: PatchTimeline | None = None,
    observable_column: int | None = None,
) -> MemoryArtifacts:
    """Build a noisy memory experiment for one rotated surface-code patch.

    Args:
        distance: code distance ``d`` (patch is d x d data qubits).
        rounds: number of syndrome rounds between init and readout.
        noise: circuit-level noise model (gates + idling).
        basis: logical basis stored and protected ("Z" or "X").
        timeline: optional idle schedule (defaults to no extra idles).
        observable_column: which data column represents the logical
            (defaults to column 0).
    """
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    if rounds < 1:
        raise ValueError("need at least one round")
    if timeline is not None and timeline.num_rounds != rounds:
        raise ValueError("timeline length must equal number of rounds")

    layout = PatchLayout(0, distance - 1, distance, vertical_basis=basis)
    registry = QubitRegistry()
    circuit = Circuit()
    emitter = StabilizerRoundEmitter(circuit, registry, noise)

    patch_qubits = emitter.patch_qubits(layout)
    emitter.emit_data_init(layout.data_coords(), basis)
    emitter.emit_ancilla_init(layout.plaquettes)
    timeline = timeline or PatchTimeline.uniform(rounds)
    emitter.emit_patch_rounds([(layout, patch_qubits, timeline)], basis)
    finals = emitter.emit_readout(layout, basis, rounds)

    column = layout.vertical_logical(observable_column)
    circuit.observable_include(0, [finals[c] for c in column])
    return MemoryArtifacts(
        circuit=circuit, layout=layout, registry=registry, detector_basis=basis
    )
