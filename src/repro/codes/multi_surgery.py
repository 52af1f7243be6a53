"""k-patch lattice-surgery experiments (Sec. 4.3).

Generalizes :mod:`repro.codes.surgery` from two patches to a row of ``k``
patches merged in a single synchronized operation — the situation the
paper's k-patch synchronization scheme (pairwise against the slowest patch)
serves, and the circuit behind multi-target Pauli-product measurements.

Patch ``i`` occupies data columns ``[i*(d+1), i*(d+1)+d-1]``; one buffer
column separates adjacent patches; the merged patch spans all of them.
Observables: one per patch (its vertical logical, index ``i``) plus the
all-patch product (index ``k``).  Each patch gets its own idle timeline, so
arbitrary per-patch synchronization plans can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..noise.models import NoiseModel
from ..stab.circuit import Circuit
from ..timing.schedule import PatchTimeline
from .layout import PatchLayout, QubitRegistry
from .rounds import StabilizerRoundEmitter

__all__ = ["MultiSurgerySpec", "MultiSurgeryArtifacts", "multi_patch_surgery_experiment"]


@dataclass(frozen=True)
class MultiSurgerySpec:
    """Configuration of one k-patch merge experiment."""

    num_patches: int
    distance: int
    noise: NoiseModel
    ls_basis: str = "Z"
    rounds_merged: int | None = None
    #: one idle timeline per patch (defaults to d+1 idle-free rounds each)
    timelines: tuple[PatchTimeline, ...] | None = None


@dataclass
class MultiSurgeryArtifacts:
    circuit: Circuit
    spec: MultiSurgerySpec
    layouts: list[PatchLayout]
    layout_merged: PatchLayout
    registry: QubitRegistry
    detector_basis: str
    detectors_by_round: dict[int, list[int]] = field(default_factory=dict)


def multi_patch_surgery_experiment(spec: MultiSurgerySpec) -> MultiSurgeryArtifacts:
    """Generate the k-patch merge experiment circuit."""
    k, d = spec.num_patches, spec.distance
    if k < 2:
        raise ValueError("need at least two patches")
    if d < 2:
        raise ValueError("distance must be at least 2")
    if spec.ls_basis not in ("X", "Z"):
        raise ValueError("ls_basis must be 'X' or 'Z'")
    basis = "X" if spec.ls_basis == "Z" else "Z"
    base = d + 1
    rounds_merged = spec.rounds_merged if spec.rounds_merged is not None else base
    timelines = (
        list(spec.timelines)
        if spec.timelines is not None
        else [PatchTimeline.uniform(base) for _ in range(k)]
    )
    if len(timelines) != k:
        raise ValueError(f"need {k} timelines, got {len(timelines)}")

    layouts = [
        PatchLayout(i * (d + 1), i * (d + 1) + d - 1, d, vertical_basis=basis)
        for i in range(k)
    ]
    layout_merged = PatchLayout(0, k * (d + 1) - 2, d, vertical_basis=basis)

    registry = QubitRegistry()
    circuit = Circuit()
    emitter = StabilizerRoundEmitter(circuit, registry, spec.noise)
    art = MultiSurgeryArtifacts(
        circuit=circuit,
        spec=spec,
        layouts=layouts,
        layout_merged=layout_merged,
        registry=registry,
        detector_basis=basis,
        detectors_by_round=emitter.detectors_by_round,
    )
    patch_qubits = [emitter.patch_qubits(lay) for lay in layouts]

    for lay in layouts:
        emitter.emit_data_init(lay.data_coords(), basis)
        emitter.emit_ancilla_init(lay.plaquettes)

    label = emitter.emit_patch_rounds(list(zip(layouts, patch_qubits, timelines)), basis)
    emitter.emit_merge(layouts, layout_merged, basis, rounds_merged, label)
    finals = emitter.emit_readout(layout_merged, basis, label + rounds_merged)

    all_logicals: list[int] = []
    for i, lay in enumerate(layouts):
        column = [finals[c] for c in lay.vertical_logical()]
        circuit.observable_include(i, column)
        all_logicals.extend(column)
    circuit.observable_include(k, all_logicals)
    return art
