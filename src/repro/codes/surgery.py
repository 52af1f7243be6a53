"""Lattice-surgery merge experiments between two surface-code patches.

Implements the experiment of Fig. 13: two distance-``d`` patches ``P`` (left,
leading) and ``P'`` (right, lagging) are initialized, run ``d+1`` pre-merge
rounds each — with the synchronization policy's idle schedule applied to
``P`` (and a cycle-time extension to ``P'`` when it emulates a slower code) —
then merged through the buffer column and run for ``d+1`` merged rounds, and
finally measured out transversally.

Basis naming follows the paper:

* ``ls_basis="Z"`` — Z-basis lattice surgery: patches are initialized in
  |+>_L, the merge measures the joint ``X_P X_P'``, and the reported
  observables are ``X_P X_P'`` (index 1) and ``X_P`` (index 0).
* ``ls_basis="X"`` — X-basis lattice surgery: |0>_L initialization, joint
  ``Z_P Z_P'``, observables ``Z_P`` and ``Z_P Z_P'``.

Detector bookkeeping across the merge transition:

* stabilizers of ``P``/``P'`` in the decoded basis continue unchanged
  (detector = current XOR previous round);
* seam stabilizers of the decoded basis are *new* at the first merged round;
  their individual outcomes are random (the product equals the joint logical
  measurement outcome), so they are detector-compared only from the second
  merged round on;
* seam stabilizers of the complementary basis extend existing boundary
  checks over buffer qubits prepared in their eigenbasis; they are not part
  of the decoded basis and carry no annotation.

``include_seam_detector=True`` additionally annotates the deterministic seam
*product* as one high-weight detector.  This is an ablation knob (off by
default): it makes the joint observable dramatically better protected than
the paper's per-operation LER setup, because the decoder is then told the
outcome of the logical measurement itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..noise.models import NoiseModel
from ..stab.circuit import Circuit
from ..timing.schedule import PatchTimeline
from .layout import PatchLayout, QubitRegistry
from .rounds import StabilizerRoundEmitter

__all__ = ["SurgerySpec", "SurgeryArtifacts", "surgery_experiment"]

#: observable indices in the generated circuits
OBS_SINGLE = 0  # X_P (Z-basis LS) or Z_P (X-basis LS): the leading patch
OBS_JOINT = 1  # X_P X_P' or Z_P Z_P'
OBS_SINGLE_PP = 2  # X_P' or Z_P': the lagging patch


@dataclass(frozen=True)
class SurgerySpec:
    """Configuration of one lattice-surgery LER experiment."""

    distance: int
    noise: NoiseModel
    ls_basis: str = "Z"
    rounds_pre: int | None = None
    rounds_merged: int | None = None
    timeline_p: PatchTimeline | None = None
    timeline_pp: PatchTimeline | None = None
    include_seam_detector: bool = False

    def resolved_rounds(self) -> tuple[int, int]:
        """(pre-merge rounds, merged rounds), defaulting to d+1 each."""
        base = self.distance + 1
        return (
            base if self.rounds_pre is None else self.rounds_pre,
            base if self.rounds_merged is None else self.rounds_merged,
        )


@dataclass
class SurgeryArtifacts:
    """Generated circuit plus geometry/bookkeeping metadata."""

    circuit: Circuit
    spec: SurgerySpec
    layout_p: PatchLayout
    layout_pp: PatchLayout
    layout_merged: PatchLayout
    registry: QubitRegistry
    detector_basis: str
    seam_detector_index: int | None = None
    #: detector indices grouped by round label, for syndrome-weight studies
    detectors_by_round: dict[int, list[int]] = field(default_factory=dict)


def surgery_experiment(spec: SurgerySpec) -> SurgeryArtifacts:
    """Generate the full lattice-surgery experiment circuit for ``spec``."""
    if spec.ls_basis not in ("X", "Z"):
        raise ValueError("ls_basis must be 'X' or 'Z'")
    d = spec.distance
    if d < 2:
        raise ValueError("distance must be at least 2")
    rounds_pre, rounds_merged = spec.resolved_rounds()

    # decoded basis B: the basis of the observables measured transversally.
    basis = "X" if spec.ls_basis == "Z" else "Z"

    layout_p = PatchLayout(0, d - 1, d, vertical_basis=basis)
    layout_pp = PatchLayout(d + 1, 2 * d, d, vertical_basis=basis)
    layout_merged = PatchLayout(0, 2 * d, d, vertical_basis=basis)

    timeline_p = spec.timeline_p or PatchTimeline.uniform(rounds_pre)
    timeline_pp = spec.timeline_pp or PatchTimeline.uniform(rounds_pre)

    registry = QubitRegistry()
    circuit = Circuit()
    emitter = StabilizerRoundEmitter(circuit, registry, spec.noise)
    art = SurgeryArtifacts(
        circuit=circuit,
        spec=spec,
        layout_p=layout_p,
        layout_pp=layout_pp,
        layout_merged=layout_merged,
        registry=registry,
        detector_basis=basis,
        detectors_by_round=emitter.detectors_by_round,
    )
    qubits_p = emitter.patch_qubits(layout_p)
    qubits_pp = emitter.patch_qubits(layout_pp)

    # ---- initialization --------------------------------------------------
    emitter.emit_data_init(layout_p.data_coords(), basis)
    emitter.emit_data_init(layout_pp.data_coords(), basis)
    emitter.emit_ancilla_init(layout_p.plaquettes)
    emitter.emit_ancilla_init(layout_pp.plaquettes)

    # ---- pre-merge rounds, merge, merged rounds, transversal readout ------
    label = emitter.emit_patch_rounds(
        [(layout_p, qubits_p, timeline_p), (layout_pp, qubits_pp, timeline_pp)], basis
    )
    art.seam_detector_index = emitter.emit_merge(
        [layout_p, layout_pp],
        layout_merged,
        basis,
        rounds_merged,
        label,
        seam_pos=(d, -1) if spec.include_seam_detector else None,
    )
    finals = emitter.emit_readout(layout_merged, basis, label + rounds_merged)

    circuit.observable_include(OBS_SINGLE, [finals[c] for c in layout_p.vertical_logical()])
    circuit.observable_include(
        OBS_JOINT,
        [finals[c] for c in layout_p.vertical_logical()]
        + [finals[c] for c in layout_pp.vertical_logical()],
    )
    circuit.observable_include(OBS_SINGLE_PP, [finals[c] for c in layout_pp.vertical_logical()])
    return art
