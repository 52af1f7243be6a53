"""Bit-flip repetition-code experiments (Fig. 1c).

The paper's motivating hardware experiment: a three-qubit repetition code on
IBM Sherbrooke with an idling delay inserted before the final round of
syndrome measurements, decoded with a lookup table.  We reproduce the same
circuit under the Pauli-twirl idling model (Fig. 1c decodes it with
union-find), for both logical preparations
|0>_L = |000> and |1>_L = |111> (Pauli frames make the preparations
statistically identical here, matching the near-overlapping hardware curves).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..noise.models import NoiseModel
from ..stab.circuit import Circuit

__all__ = ["RepetitionArtifacts", "repetition_experiment"]


@dataclass
class RepetitionArtifacts:
    circuit: Circuit
    num_data: int
    rounds: int


def repetition_experiment(
    num_data: int,
    rounds: int,
    noise: NoiseModel,
    *,
    idle_before_last_round_ns: float = 0.0,
) -> RepetitionArtifacts:
    """Build an ``num_data``-qubit bit-flip repetition-code experiment.

    Data qubits are 0..n-1, ancillas n..2n-2; each round measures the
    ZZ parities of neighbouring data qubits.  ``idle_before_last_round_ns``
    reproduces the Fig. 1c sweep (idle inserted before the final round).
    """
    if num_data < 2:
        raise ValueError("need at least two data qubits")
    if rounds < 1:
        raise ValueError("need at least one round")
    n = num_data
    data = list(range(n))
    anc = list(range(n, 2 * n - 1))
    hw = noise.hardware

    c = Circuit()
    c.append("R", data + anc)
    noise.emit_reset_flip(c, data + anc, "Z")

    prev: list[int] = []
    for r in range(rounds):
        if r == rounds - 1 and idle_before_last_round_ns > 0:
            noise.emit_idle(c, data + anc, idle_before_last_round_ns)
        # CNOT layer 1: data[i] -> anc[i]
        pairs1 = [q for i in range(n - 1) for q in (data[i], anc[i])]
        c.append("CX", pairs1)
        noise.emit_clifford2(c, pairs1)
        noise.emit_idle(c, [data[n - 1]], hw.time_2q_ns, structural=True)
        # CNOT layer 2: data[i+1] -> anc[i]
        pairs2 = [q for i in range(n - 1) for q in (data[i + 1], anc[i])]
        c.append("CX", pairs2)
        noise.emit_clifford2(c, pairs2)
        noise.emit_idle(c, [data[0]], hw.time_2q_ns, structural=True)
        # measure + reset ancillas; data idles through readout
        noise.emit_measure_flip(c, anc, "Z")
        recs = c.append("MR", anc)
        noise.emit_reset_flip(c, anc, "Z")
        noise.emit_idle(c, data, hw.time_readout_ns + hw.time_reset_ns, structural=True)
        c.append_detectors(
            [[recs[k]] if r == 0 else [prev[k], recs[k]] for k in range(n - 1)],
            coords=[(k, r) for k in range(n - 1)],
            basis="Z",
        )
        prev = recs

    noise.emit_measure_flip(c, data, "Z")
    finals = c.append("M", data)
    c.append_detectors(
        [[prev[k], finals[k], finals[k + 1]] for k in range(n - 1)],
        coords=[(k, rounds) for k in range(n - 1)],
        basis="Z",
    )
    c.observable_include(0, [finals[0]])
    return RepetitionArtifacts(circuit=c, num_data=n, rounds=rounds)
