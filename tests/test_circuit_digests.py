"""Pinned instruction streams of every circuit generator.

Each case builds one small circuit and hashes its full instruction stream
(name, targets, args and coords as ``float.hex``, records, basis and
observable index) together with its qubit, measurement, detector and
observable counts.  A synthesis change that is meant to be bit-exact must
leave every digest unchanged; a change that moves one has changed the
circuits the LER points are sampled from.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.codes import (
    MultiSurgerySpec,
    SurgerySpec,
    memory_experiment,
    multi_patch_surgery_experiment,
    surgery_experiment,
)
from repro.codes.repetition import repetition_experiment
from repro.core.policies import make_policy
from repro.experiments.ler import SurgeryLerConfig, _synthesize
from repro.noise import GOOGLE, IBM, NoiseModel
from repro.timing.schedule import PatchTimeline, RoundIdle


def circuit_digest(circuit) -> str:
    """sha256 over the instruction stream and the circuit's counts."""
    h = hashlib.sha256()
    for inst in circuit:
        fields = (
            inst.name,
            inst.targets,
            tuple(a.hex() for a in inst.args),
            inst.rec,
            tuple(float(c).hex() for c in inst.coords),
            inst.basis,
            inst.obs_index,
        )
        h.update(repr(fields).encode())
        h.update(b"\n")
    counts = (
        circuit.num_qubits,
        circuit.num_measurements,
        circuit.num_detectors,
        circuit.num_observables,
    )
    h.update(repr(counts).encode())
    return h.hexdigest()


def _surgery(policy, ls_basis="Z", hardware=GOOGLE, seam=False):
    # a slower lagging patch puts a structural intra-round extension on P';
    # 110 ns leaves Hybrid a residual idle, 250 ns gives Extra Rounds a solution
    lag_ns = 250.0 if policy == "extra_rounds" else 110.0
    config = SurgeryLerConfig(
        distance=3,
        hardware=hardware,
        policy_name=policy,
        tau_ns=500.0,
        ls_basis=ls_basis,
        t_pp_ns=hardware.cycle_time_ns + lag_ns,
        include_seam_detector=seam,
    )
    _, art = _synthesize(config, make_policy(policy))
    return art.circuit


def _multi_surgery_two_x():
    noise = NoiseModel(hardware=IBM)
    spec = MultiSurgerySpec(
        num_patches=2, distance=3, noise=noise, ls_basis="X", rounds_merged=2
    )
    return multi_patch_surgery_experiment(spec).circuit


def _surgery_uneven_seam():
    # the lagging patch runs two more pre-merge rounds than the leading one
    noise = NoiseModel(hardware=GOOGLE)
    spec = SurgerySpec(
        distance=3,
        noise=noise,
        ls_basis="X",
        timeline_p=PatchTimeline.uniform(3, pre_ns=80.0, final_idle_ns=150.0),
        timeline_pp=PatchTimeline.uniform(5, final_idle_ns=20.0),
        include_seam_detector=True,
    )
    return surgery_experiment(spec).circuit


def _multi_surgery():
    noise = NoiseModel(hardware=GOOGLE)
    timelines = (
        PatchTimeline.uniform(4, final_idle_ns=300.0),
        PatchTimeline.uniform(4, pre_ns=75.0),
        PatchTimeline.uniform(4, intra_ns=120.0, intra_is_structural=True),
    )
    spec = MultiSurgerySpec(num_patches=3, distance=3, noise=noise, timelines=timelines)
    return multi_patch_surgery_experiment(spec).circuit


def _repetition():
    noise = NoiseModel(hardware=IBM)
    return repetition_experiment(3, 3, noise, idle_before_last_round_ns=800.0).circuit


def _memory(basis):
    noise = NoiseModel(hardware=GOOGLE)
    timeline = PatchTimeline.uniform(3, pre_ns=100.0, intra_ns=60.0, final_idle_ns=40.0)
    return memory_experiment(3, 3, noise, basis=basis, timeline=timeline).circuit


def _memory_alternating_intra():
    # two intra-round idles alternate over non-adjacent rounds, each round
    # with its own pre-round idle, so equal round bodies recur apart
    noise = NoiseModel(hardware=GOOGLE)
    rounds = [
        RoundIdle(pre_ns=pre, intra_ns=intra)
        for pre, intra in [(0.0, 60.0), (35.0, 90.0), (80.0, 60.0), (0.0, 90.0), (15.0, 60.0)]
    ]
    timeline = PatchTimeline(rounds=rounds, final_idle_ns=45.0)
    return memory_experiment(3, 5, noise, timeline=timeline).circuit


def _memory_structural_mix():
    # one intra-round idle, emitted as structural and as synchronization idle
    noise = NoiseModel(hardware=IBM)
    rounds = [
        RoundIdle(intra_ns=120.0, intra_is_structural=structural)
        for structural in (True, False, True, False)
    ]
    return memory_experiment(3, 4, noise, basis="X", timeline=PatchTimeline(rounds)).circuit


def _memory_plain(**kwargs):
    return memory_experiment(3, 2, NoiseModel(hardware=IBM), **kwargs).circuit


CASES = {
    **{
        f"surgery-{basis}-{policy}": (lambda p=policy, b=basis: _surgery(p, b))
        for basis in ("Z", "X")
        for policy in ("passive", "active", "active_intra", "extra_rounds", "hybrid")
    },
    "surgery-Z-active-ibm-seam": lambda: _surgery("active", hardware=IBM, seam=True),
    "surgery-X-uneven-seam": _surgery_uneven_seam,
    "multi_surgery": _multi_surgery,
    "multi_surgery-2-X": _multi_surgery_two_x,
    "repetition": _repetition,
    "memory-Z": lambda: _memory("Z"),
    "memory-X": lambda: _memory("X"),
    "memory-Z-no-timeline": lambda: _memory_plain(),
    "memory-X-column-2": lambda: _memory_plain(basis="X", observable_column=2),
    "memory-Z-alternating-intra": _memory_alternating_intra,
    "memory-X-structural-mix": _memory_structural_mix,
}

#: circuit_digest of each case; a bit-exact synthesis change leaves every one unchanged
DIGESTS = {
    "memory-X": "512d12db242bbb48504b4a307fd1d525dd6e4fd90774634dd6e535603a9585af",
    "memory-X-column-2": "c8df904bcb73541b90b60e84e402fc53a85ad290eeef40ee2c27c752ccdde7ec",
    "memory-Z": "1cafcdc071630b827ebeec45f5c905e09609bb4bad393288456387799879b80c",
    "memory-X-structural-mix": "f6b6e01c3c53e3a776c9e0ea2832de4137ee11affc66487a7a1e2474c0d78189",
    "memory-Z-alternating-intra": "17ceea9cd170490bc6c607570afd55dee266dae2ca919fa819640e2fcd20e5eb",
    "memory-Z-no-timeline": "70b2e8a2a52784a4cb77d5e0622116fbc770b6cb33f9d23c90322c41eb845e67",
    "multi_surgery": "6e81ae39a814f0fe731ade0d2ae8c426ad3b3ce82e4055aa6613949ef7fe0e3c",
    "multi_surgery-2-X": "c8d5982e9f3201c82bed1475d3acbe2c6c97c3883eb19838db8d58604b2db3f7",
    "repetition": "52bc540ddd69aac133e7f4a04a02062b94c557163352c719b8f56926b3120e82",
    "surgery-X-active": "3a1fb0c1a0a6c0f5e0890842e9e999f508642cb150112a245c4fa1b923e4e77b",
    "surgery-X-active_intra": "0a9b0c7ce36ae24394197b4b8abbffe753ab575b1fd613ea654ae4f98e6cccf6",
    "surgery-X-extra_rounds": "9389ee6315fb8ef77ca4cf362f62cd38b31a6c9ee40711967217b337e97920f4",
    "surgery-X-hybrid": "d94e72ffd9db159d4cbf89cb0cce48ea2e00b092d9b2874225568da0cec8d5bf",
    "surgery-X-passive": "56beb38cd0aa314c1203a838bdd52582109edf082fe43f6aa73930645f6ba2ca",
    "surgery-X-uneven-seam": "4a051441052e3d86ceae80d1476454b30166a5f7bc1c55cab8bb133b46347d19",
    "surgery-Z-active": "580d46e7db43f4eafa2c3304b2d58f2ef06e633e28037fff6fa0f3b7af08a4f2",
    "surgery-Z-active-ibm-seam": "32875c61d896a560af702145a7b8b2bd5681e6296f5c79ca8bac37d85c299644",
    "surgery-Z-active_intra": "449dd25f6c215d2f3eaeb394adebf65a3e63d25054ae48a46df722f9fe5fe259",
    "surgery-Z-extra_rounds": "dc7876ffa28c9de520c2c491067d980fe95371abe12d8808fb123ef786738b0d",
    "surgery-Z-hybrid": "7c535e0cd239cc8c0d5995b0f0a6c0f0200c4fd1259ad8e868133c2b3f22337e",
    "surgery-Z-passive": "4178bc9cd574535b4c0f6945bcf0c0b54f3401be4b46a86d2de9b8765d05b0d4",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_instruction_stream_is_pinned(case):
    assert circuit_digest(CASES[case]()) == DIGESTS[case]


def test_digest_sees_a_one_ulp_probability_change():
    circuit = _repetition()
    before = circuit_digest(circuit)
    inst = next(i for i in circuit.instructions if i.args)
    k = circuit.instructions.index(inst)
    nudged = tuple(a + a * 2**-52 for a in inst.args)
    circuit.instructions[k] = type(inst)(**{**vars(inst), "args": nudged})
    assert circuit_digest(circuit) != before
