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
from ..timing.schedule import PatchTimeline, RoundIdle
from .layout import PatchLayout, QubitRegistry, other_basis
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
    # buffer preparation basis: eigenbasis of the *extended* (complementary)
    # seam checks, which must stay deterministic across the merge.
    buffer_basis = other_basis(basis)

    layout_p = PatchLayout(0, d - 1, d, vertical_basis=basis)
    layout_pp = PatchLayout(d + 1, 2 * d, d, vertical_basis=basis)
    layout_merged = PatchLayout(0, 2 * d, d, vertical_basis=basis)
    buffer_coords = [(d, j) for j in range(d)]

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
    )

    patch_qubits = {
        "P": _patch_qubits(layout_p, registry),
        "PP": _patch_qubits(layout_pp, registry),
    }

    # ---- initialization --------------------------------------------------
    emitter.emit_data_init(layout_p.data_coords(), basis)
    emitter.emit_data_init(layout_pp.data_coords(), basis)
    emitter.emit_ancilla_init(layout_p.plaquettes)
    emitter.emit_ancilla_init(layout_pp.plaquettes)

    # ---- pre-merge rounds --------------------------------------------------
    prev: dict[tuple[int, int], int] = {}
    round_label = 0
    max_rounds = max(timeline_p.num_rounds, timeline_pp.num_rounds)
    for r in range(max_rounds):
        for name, layout, timeline in (
            ("P", layout_p, timeline_p),
            ("PP", layout_pp, timeline_pp),
        ):
            if r >= timeline.num_rounds:
                continue
            recs = emitter.emit_round(layout.plaquettes, patch_qubits[name], timeline.rounds[r])
            _annotate_round(circuit, art, layout, recs, prev, basis, r, first=(r == 0))
            prev.update(recs)
        round_label = r + 1

    if timeline_p.final_idle_ns > 0:
        spec.noise.emit_idle(circuit, patch_qubits["P"], timeline_p.final_idle_ns)
    if timeline_pp.final_idle_ns > 0:
        spec.noise.emit_idle(circuit, patch_qubits["PP"], timeline_pp.final_idle_ns)

    # ---- merge ------------------------------------------------------------------
    existing = {p.pos for p in layout_p.plaquettes} | {p.pos for p in layout_pp.plaquettes}
    new_plaquettes = [p for p in layout_merged.plaquettes if p.pos not in existing]
    emitter.emit_data_init(buffer_coords, buffer_basis)
    emitter.emit_ancilla_init(new_plaquettes)
    merged_qubits = sorted(
        {registry.data(c) for c in layout_merged.data_coords()}
        | {registry.ancilla(p.pos) for p in layout_merged.plaquettes}
    )

    new_basis_positions = {p.pos for p in new_plaquettes if p.basis == basis}
    for m in range(rounds_merged):
        recs = emitter.emit_round(layout_merged.plaquettes, merged_qubits, RoundIdle())
        label = round_label + m
        rows = [
            ([prev[p.pos], recs[p.pos]], p.pos)
            for p in layout_merged.plaquettes
            if p.basis == basis
            # a new seam check is individually random; the seam product covers it
            and not (m == 0 and p.pos in new_basis_positions)
        ]
        if m == 0 and spec.include_seam_detector and new_basis_positions:
            art.seam_detector_index = circuit.num_detectors + len(rows)
            rows.append(([recs[pos] for pos in sorted(new_basis_positions)], (d, -1)))
        _add_detectors(circuit, art, rows, label, basis)
        prev.update(recs)

    # ---- transversal readout -------------------------------------------------------
    finals = emitter.emit_data_measurement(layout_merged.data_coords(), basis)
    rows = [
        ([prev[p.pos]] + [finals[c] for c in p.data], p.pos)
        for p in layout_merged.plaquettes
        if p.basis == basis
    ]
    _add_detectors(circuit, art, rows, round_label + rounds_merged, basis)

    circuit.observable_include(OBS_SINGLE, [finals[c] for c in layout_p.vertical_logical()])
    circuit.observable_include(
        OBS_JOINT,
        [finals[c] for c in layout_p.vertical_logical()]
        + [finals[c] for c in layout_pp.vertical_logical()],
    )
    circuit.observable_include(OBS_SINGLE_PP, [finals[c] for c in layout_pp.vertical_logical()])
    return art


def _patch_qubits(layout: PatchLayout, registry: QubitRegistry) -> list[int]:
    return sorted(
        {registry.data(c) for c in layout.data_coords()}
        | {registry.ancilla(p.pos) for p in layout.plaquettes}
    )


def _annotate_round(circuit, art, layout, recs, prev, basis, round_label, *, first):
    rows = [
        ([recs[p.pos]] if first else [prev[p.pos], recs[p.pos]], p.pos)
        for p in layout.plaquettes
        if p.basis == basis
    ]
    _add_detectors(circuit, art, rows, round_label, basis)


def _add_detectors(circuit, art, rows, round_label, basis) -> None:
    """Append one round's ``(records, plaquette position)`` rows as one detector block."""
    new = circuit.append_detectors(
        [rec for rec, _ in rows],
        coords=[(pos[0], pos[1], round_label) for _, pos in rows],
        basis=basis,
    )
    art.detectors_by_round.setdefault(round_label, []).extend(new)
