"""Syndrome-round circuit emission with timing-aware idle annotation.

One stabilizer round is the gate sequence of Fig. 2(b): a Hadamard layer on
X-ancillas, four CNOT layers following the hook-avoiding schedule, a closing
Hadamard layer, then ancilla measure+reset.  While any layer executes, every
patch qubit not acted on idles for that layer's duration and receives the
twirled idling channel — this is the ``lattice-sim`` behaviour the paper
describes ("annotates idling errors based on the idle periods experienced by
the qubits after every operation").

Synchronization idles (:class:`~repro.timing.schedule.RoundIdle`) are
stitched in here: ``pre_ns`` before the round, ``intra_ns`` split evenly
across the six internal layer boundaries.

Every surface-code experiment (memory, surgery, k-patch) is
composed from the emitter's steps: patch rounds, merge, readout.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from ..noise.models import NoiseModel
from ..stab.circuit import Circuit
from ..timing.schedule import PatchTimeline, RoundIdle
from .layout import PatchLayout, Plaquette, QubitRegistry, other_basis

__all__ = ["StabilizerRoundEmitter"]

#: number of internal layer boundaries across which intra-round idle spreads
_NUM_GAPS = 6


class _RoundLayers(NamedTuple):
    """The qubit lists of one layout's round, identical in every round."""

    #: ancillas sorted by plaquette position, and the X-basis ones
    anc: list[int]
    x_anc: list[int]
    #: the four CX layers' (control, target) pair lists
    cx: tuple[list[int], ...]
    #: patch qubits idling through a Hadamard layer, each CX layer, readout
    idle_h: list[int]
    idle_cx: tuple[list[int], ...]
    idle_readout: list[int]
    #: plaquette positions in record order
    order: tuple[tuple[int, int], ...]


class StabilizerRoundEmitter:
    """Emits stabilizer-measurement rounds for a set of plaquettes.

    A layout's rounds differ only in their synchronization idles, so the
    gate layers of each (plaquettes, patch qubits) pair are built on its
    first round and replayed afterwards.  The cache lives on the emitter,
    which builds one circuit over one registry.  The experiment steps pass
    the same two lists every round, so a round first looks its layers up by
    the lists' identities and hashes the plaquettes only for a new pair.
    Everything after a round's pre-round idle depends only on its layers and
    intra-round idle, so that body is built once as a small circuit, also
    cached on the emitter, and each round splices it in with
    :meth:`Circuit.extend <repro.stab.circuit.Circuit.extend>`.

    The experiment steps keep each check's latest record, so the next
    round's detector compares against it, and group the detectors they add
    by round label in :attr:`detectors_by_round`.
    """

    def __init__(self, circuit: Circuit, registry: QubitRegistry, noise: NoiseModel):
        self.circuit = circuit
        self.registry = registry
        self.noise = noise
        self._layer_cache: dict[tuple, _RoundLayers] = {}
        #: (id(layers), intra_ns, intra_is_structural) -> the round's body;
        #: ``_layer_cache`` keeps every layers object alive, so ids stay unique
        self._body_cache: dict[tuple[int, float, bool], Circuit] = {}
        #: (id(plaquettes), id(patch_qubits)) -> (copies of both lists, layers)
        self._layers_by_list: dict[tuple[int, int], tuple[list, list, _RoundLayers]] = {}
        #: plaquette position -> record of its latest measurement
        self._last: dict[tuple[int, int], int] = {}
        #: detector indices grouped by round label, for syndrome-weight studies
        self.detectors_by_round: dict[int, list[int]] = {}

    def patch_qubits(self, layout: PatchLayout) -> list[int]:
        """Every data and ancilla qubit of ``layout``, sorted.

        Registers the data qubits first, then the ancillas, so call it in a
        fixed order before a layout's initialization.
        """
        reg = self.registry
        return sorted(
            {reg.data(c) for c in layout.data_coords()}
            | {reg.ancilla(p.pos) for p in layout.plaquettes}
        )

    # -- initialization -------------------------------------------------------

    def emit_data_init(self, coords, basis: str) -> None:
        """Reset data qubits into the |0> (Z) or |+> (X) product state."""
        qubits = [self.registry.data(c) for c in coords]
        self.circuit.append("RX" if basis == "X" else "R", qubits)
        self.noise.emit_reset_flip(self.circuit, qubits, basis)

    def emit_ancilla_init(self, plaquettes) -> None:
        """Reset all ancillas of the given plaquettes to |0>."""
        qubits = [self.registry.ancilla(p.pos) for p in plaquettes]
        self.circuit.append("R", qubits)
        self.noise.emit_reset_flip(self.circuit, qubits, "Z")

    # -- one round ---------------------------------------------------------------

    def _round_layers(
        self, plaquettes: list[Plaquette], patch_qubits: list[int]
    ) -> _RoundLayers:
        """The gate layers of a round over ``plaquettes``, built once.

        Keyed on the plaquette values, not their positions: a seam plaquette
        can sit at a smaller patch's position with different slots.  The
        lookup by list identities keeps copies of the two lists and checks
        them with ``==``, so a list changed in place, or a new list at a
        freed one's address, is still matched on its values.
        """
        by_list = (id(plaquettes), id(patch_qubits))
        hit = self._layers_by_list.get(by_list)
        if hit is not None and hit[0] == plaquettes and hit[1] == patch_qubits:
            return hit[2]
        key = (tuple(plaquettes), tuple(patch_qubits))
        layers = self._layer_cache.get(key)
        if layers is None:
            layers = self._layer_cache[key] = self._build_layers(plaquettes, patch_qubits)
        self._layers_by_list[by_list] = (list(plaquettes), list(patch_qubits), layers)
        return layers

    def _build_layers(
        self, plaquettes: list[Plaquette], patch_qubits: list[int]
    ) -> _RoundLayers:
        # registry lookups run in the order the uncached round made them, so
        # a layout's first round assigns the same qubit indices it always did
        reg = self.registry
        plaquettes = sorted(plaquettes, key=lambda p: p.pos)
        anc = [reg.ancilla(p.pos) for p in plaquettes]
        x_anc = [reg.ancilla(p.pos) for p in plaquettes if p.basis == "X"]
        patch_set = set(patch_qubits)
        cx, idle_cx = [], []
        for slot in range(4):
            pairs: list[int] = []
            active: set[int] = set()
            for p in plaquettes:
                coord = p.slots[slot]
                if coord is None:
                    continue
                a = reg.ancilla(p.pos)
                dqub = reg.data(coord)
                ctrl, tgt = (a, dqub) if p.basis == "X" else (dqub, a)
                pairs.extend((ctrl, tgt))
                active.add(a)
                active.add(dqub)
            cx.append(pairs)
            idle_cx.append(sorted(patch_set - active))
        return _RoundLayers(
            anc=anc,
            x_anc=x_anc,
            cx=tuple(cx),
            idle_h=sorted(patch_set - set(x_anc)),
            idle_cx=tuple(idle_cx),
            idle_readout=sorted(patch_set - set(anc)),
            order=tuple(p.pos for p in plaquettes),
        )

    def emit_round(
        self,
        plaquettes: list[Plaquette],
        patch_qubits: list[int],
        idle: RoundIdle = RoundIdle(),
    ) -> dict[tuple[int, int], int]:
        """Emit one full syndrome round; returns plaquette pos -> record index."""
        circuit = self.circuit
        layers = self._round_layers(plaquettes, patch_qubits)
        if idle.pre_ns > 0:
            self.noise.emit_idle(circuit, patch_qubits, idle.pre_ns)
        key = (id(layers), idle.intra_ns, idle.intra_is_structural)
        body = self._body_cache.get(key)
        if body is None:
            body = self._body_cache[key] = self._build_body(layers, patch_qubits, idle)
        start = circuit.num_measurements
        circuit.extend(body)
        return dict(zip(layers.order, range(start, start + len(layers.anc))))

    def _build_body(
        self, layers: _RoundLayers, patch_qubits: list[int], idle: RoundIdle
    ) -> Circuit:
        """A round after its pre-round idle, as a standalone circuit.

        Its gate layers, their noise, the structural and gap idles, the
        ancilla readout and the ticks are the same in every round with these
        layers and intra-round idle, so each such body is built once.
        """
        body, noise = Circuit(), self.noise
        hw = noise.hardware
        gap_ns = idle.intra_ns / _NUM_GAPS if idle.intra_ns > 0 else 0.0

        def gap() -> None:
            if gap_ns > 0:
                noise.emit_idle(body, patch_qubits, gap_ns, structural=idle.intra_is_structural)

        def hadamard_layer() -> None:
            if layers.x_anc:
                body.append("H", layers.x_anc)
                noise.emit_clifford1(body, layers.x_anc)
            noise.emit_idle(body, layers.idle_h, hw.time_1q_ns, structural=True)
            body.tick()
            gap()

        hadamard_layer()
        for pairs, inactive in zip(layers.cx, layers.idle_cx):
            if pairs:
                body.append("CX", pairs)
                noise.emit_clifford2(body, pairs)
            noise.emit_idle(body, inactive, hw.time_2q_ns, structural=True)
            body.tick()
            gap()
        hadamard_layer()

        # measurement + reset of all ancillas; data idles through readout
        anc = layers.anc
        noise.emit_measure_flip(body, anc, "Z")
        body.append("MR", anc)
        noise.emit_reset_flip(body, anc, "Z")
        noise.emit_idle(
            body, layers.idle_readout, hw.time_readout_ns + hw.time_reset_ns, structural=True
        )
        body.tick()
        return body

    # -- final transversal readout --------------------------------------------------

    def emit_data_measurement(self, coords, basis: str) -> dict[tuple[int, int], int]:
        """Measure data qubits transversally; returns coord -> record index."""
        coords = sorted(coords)
        qubits = [self.registry.data(c) for c in coords]
        self.noise.emit_measure_flip(self.circuit, qubits, basis)
        recs = self.circuit.append("MX" if basis == "X" else "M", qubits)
        return {c: recs[i] for i, c in enumerate(coords)}

    # -- experiment steps -----------------------------------------------------------

    def add_detectors(self, rows, label: int, basis: str) -> None:
        """Append ``(records, plaquette position)`` rows as one block at round ``label``."""
        new = self.circuit.append_detectors(
            [rec for rec, _ in rows],
            coords=[(pos[0], pos[1], label) for _, pos in rows],
            basis=basis,
        )
        self.detectors_by_round.setdefault(label, []).extend(new)

    def _round_rows(self, plaquettes, recs, basis: str, skip=()) -> list:
        """One round's ``basis`` check rows against their previous records, if any."""
        last = self._last
        rows = [
            ([last[p.pos], recs[p.pos]] if p.pos in last else [recs[p.pos]], p.pos)
            for p in plaquettes
            if p.basis == basis and p.pos not in skip
        ]
        last.update(recs)
        return rows

    def emit_patch_rounds(
        self,
        patches: Sequence[tuple[PatchLayout, list[int], PatchTimeline]],
        basis: str,
        *,
        label: int = 0,
    ) -> int:
        """Run each ``(layout, qubits, timeline)`` patch, then its final idle.

        Round ``r`` of every patch runs before round ``r + 1`` of any; each
        patch round adds one detector block at ``label + r``.  Returns the
        next label.
        """
        num_rounds = max(timeline.num_rounds for _, _, timeline in patches)
        for r in range(num_rounds):
            for layout, qubits, timeline in patches:
                if r >= timeline.num_rounds:
                    continue
                recs = self.emit_round(layout.plaquettes, qubits, timeline.rounds[r])
                rows = self._round_rows(layout.plaquettes, recs, basis)
                self.add_detectors(rows, label + r, basis)
        for _, qubits, timeline in patches:
            if timeline.final_idle_ns > 0:
                self.noise.emit_idle(self.circuit, qubits, timeline.final_idle_ns)
        return label + num_rounds

    def emit_merge(
        self,
        patches: Sequence[PatchLayout],
        merged: PatchLayout,
        basis: str,
        rounds: int,
        label: int,
        *,
        seam_pos: tuple[int, int] | None = None,
    ) -> int | None:
        """Join ``patches`` into ``merged`` and run its ``rounds`` rounds from ``label``.

        The buffer starts in the other basis, the eigenbasis of the extended
        seam checks, so those stay deterministic.  The new ``basis`` seam
        checks are random in the first merged round; only their product,
        the joint logical measurement, is deterministic.  With ``seam_pos``
        that product closes the first merged round's block as one detector,
        whose index is returned; otherwise (or with no new checks) None.
        """
        existing = {p.pos for layout in patches for p in layout.plaquettes}
        patch_data = {c for layout in patches for c in layout.data_coords()}
        new = [p for p in merged.plaquettes if p.pos not in existing]
        self.emit_data_init(
            [c for c in merged.data_coords() if c not in patch_data], other_basis(basis)
        )
        self.emit_ancilla_init(new)
        qubits = self.patch_qubits(merged)
        new_checks = {p.pos for p in new if p.basis == basis}
        joint: list[int] = []
        for m in range(rounds):
            recs = self.emit_round(merged.plaquettes, qubits)
            rows = self._round_rows(merged.plaquettes, recs, basis, new_checks if m == 0 else ())
            if m == 0 and seam_pos is not None:
                joint = [recs[p.pos] for p in merged.plaquettes if p.pos in new_checks]
                if joint:
                    rows.append((joint, seam_pos))
            self.add_detectors(rows, label + m, basis)
        # the seam row is the last of the first merged round's block
        return self.detectors_by_round[label][-1] if joint else None

    def emit_readout(
        self, layout: PatchLayout, basis: str, label: int
    ) -> dict[tuple[int, int], int]:
        """Measure ``layout``'s data and close its ``basis`` checks at ``label``."""
        finals = self.emit_data_measurement(layout.data_coords(), basis)
        rows = [
            ([self._last[p.pos]] + [finals[c] for c in p.data], p.pos)
            for p in layout.plaquettes
            if p.basis == basis
        ]
        self.add_detectors(rows, label, basis)
        return finals
