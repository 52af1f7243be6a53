"""Logical teleportation between patches via lattice surgery (Fig. 3a).

Heterogeneous systems move logical qubits between codes by teleportation:
a joint logical measurement between the source and a target patch, followed
by measuring the source out and applying a Pauli correction conditioned on
the two outcomes.  Every such teleport is a synchronized lattice-surgery
operation — this is the workload the paper's qLDPC/cultivation case studies
count.

Here both endpoints are surface-code patches (the paper's own evaluations
also stay within the surface code, Sec. 6); the slower codes enter through
the lagging patch's cycle-time extension, exactly as in
:mod:`repro.codes.surgery`.

Protocol (X-basis variant, teleporting the Z-basis logical state):

1. source ``P`` holds the state; target ``P'`` is prepared in ``|+>_L``;
2. merge measures ``Z_P Z_P'`` (outcome ``m_zz``);
3. split, then measure ``P`` transversally in X (outcome ``m_x``);
4. the state lives in ``P'`` up to ``X^{m_zz} Z^{m_x}`` — with Pauli-frame
   corrections folded into the observable definition, ``Z_{P'} . Z_P(0) =
   m_zz``-corrected parity is deterministic.

The generated experiment prepares ``P`` in ``|0>_L``, teleports, and checks
the teleported ``Z`` logical: the observable combines the target's final
transversal readout with the joint-measurement record (the seam product) so
that it is noiseless-deterministic — verified by the tableau oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..noise.models import NoiseModel
from ..stab.circuit import Circuit
from ..timing.schedule import PatchTimeline
from .layout import PatchLayout, QubitRegistry
from .rounds import StabilizerRoundEmitter

__all__ = ["TeleportSpec", "TeleportArtifacts", "teleport_experiment"]

#: the teleported logical (target patch, correction-folded)
OBS_TELEPORTED = 0


@dataclass(frozen=True)
class TeleportSpec:
    """Configuration of one logical-teleportation experiment."""

    distance: int
    noise: NoiseModel
    #: pre-merge rounds for each patch (defaults to d+1)
    rounds_pre: int | None = None
    rounds_merged: int | None = None
    #: post-split rounds on the target before its readout (defaults to d+1)
    rounds_post: int | None = None
    timeline_p: PatchTimeline | None = None
    timeline_pp: PatchTimeline | None = None


@dataclass
class TeleportArtifacts:
    circuit: Circuit
    spec: TeleportSpec
    layout_src: PatchLayout
    layout_dst: PatchLayout
    registry: QubitRegistry
    detector_basis: str


def teleport_experiment(spec: TeleportSpec) -> TeleportArtifacts:
    """Teleport a ``|0>_L`` from the left patch to the right patch.

    The decoded basis is Z throughout: detectors ride on Z-plaquettes, the
    merge measures ``Z_P Z_P'`` through an X-basis buffer (rough merge), and
    the observable is the teleported Z logical.
    """
    d = spec.distance
    if d < 2:
        raise ValueError("distance must be at least 2")
    base = d + 1
    rounds_pre = spec.rounds_pre if spec.rounds_pre is not None else base
    rounds_merged = spec.rounds_merged if spec.rounds_merged is not None else base
    rounds_post = spec.rounds_post if spec.rounds_post is not None else base

    basis = "Z"
    layout_src = PatchLayout(0, d - 1, d, vertical_basis=basis)
    layout_dst = PatchLayout(d + 1, 2 * d, d, vertical_basis=basis)
    layout_merged = PatchLayout(0, 2 * d, d, vertical_basis=basis)

    timeline_p = spec.timeline_p or PatchTimeline.uniform(rounds_pre)
    timeline_pp = spec.timeline_pp or PatchTimeline.uniform(rounds_pre)

    registry = QubitRegistry()
    circuit = Circuit()
    emitter = StabilizerRoundEmitter(circuit, registry, spec.noise)

    src_qubits = emitter.patch_qubits(layout_src)
    dst_qubits = emitter.patch_qubits(layout_dst)

    # -- init: source holds |0>_L; target prepared in |+>_L ------------------
    emitter.emit_data_init(layout_src.data_coords(), "Z")
    emitter.emit_data_init(layout_dst.data_coords(), "X")
    emitter.emit_ancilla_init(layout_src.plaquettes)
    emitter.emit_ancilla_init(layout_dst.plaquettes)

    # the |+>-prepared target's Z-checks start random
    label = emitter.emit_patch_rounds(
        [(layout_src, src_qubits, timeline_p), (layout_dst, dst_qubits, timeline_pp)],
        basis,
        random_first={1},
    )

    # -- merge: rough merge measuring Z_P Z_P' through a |+> buffer ----------
    joint_record = emitter.emit_merge(
        [layout_src, layout_dst], layout_merged, basis, rounds_merged, label
    )

    # -- split: measure source + buffer out in X; target keeps running --------
    out_coords = layout_src.data_coords() + [(d, j) for j in range(d)]
    emitter.emit_data_measurement(out_coords, "X")
    # X-basis readout of the source reconstructs its X-checks; those are not
    # in the decoded basis, so no detectors are added here.  The destination's
    # boundary checks shrink back; their next measurement compares against the
    # merged-round value corrected by the measured-out buffer qubits.
    # every Z-check of the destination keeps its support across merge and
    # split (the seam checks that appeared and disappeared belonged to the
    # merged patch, not to the destination layout), so detectors chain on
    label = emitter.emit_patch_rounds(
        [(layout_dst, dst_qubits, PatchTimeline.uniform(rounds_post))],
        basis,
        label=label + rounds_merged,
    )
    finals = emitter.emit_readout(layout_dst, basis, label)

    # teleported Z logical: destination column, corrected by m_zz (the joint
    # measurement outcome, i.e. the seam product of first merged-round checks)
    obs_rec = [finals[c] for c in layout_dst.vertical_logical()] + joint_record
    circuit.observable_include(OBS_TELEPORTED, obs_rec)
    return TeleportArtifacts(
        circuit=circuit,
        spec=spec,
        layout_src=layout_src,
        layout_dst=layout_dst,
        registry=registry,
        detector_basis=basis,
    )
