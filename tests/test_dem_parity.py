"""Exact parity of the backward DEM extractor with the forward oracle.

:func:`repro.stab.circuit_to_dem` walks the circuit once, backwards, with
per-qubit sensitivity bitsets; ``dem_oracle.forward_circuit_to_dem``
propagates every noise component forward as its own frame column.  The two
must give ``==`` ``DemError`` lists — same signatures, same order and the
same probabilities to the last bit — because stored point records are
keyed on decode-path code locked under ``STORE_SALT``, which the backward
pass did not bump.

Surgery circuits only use CX/H/R/RX/MR/MX, so the seeded random circuits
are the coverage for every other instruction (CZ, SWAP, S, SQRT_X, M, Y
noise, PAULI_CHANNEL_1 with zero entries, CX chains through a shared qubit).
"""

import random

import pytest
from dem_oracle import forward_circuit_to_dem

from repro.codes import (
    MultiSurgerySpec,
    TeleportSpec,
    memory_experiment,
    multi_patch_surgery_experiment,
    teleport_experiment,
)
from repro.codes.repetition import repetition_experiment
from repro.core.policies import POLICIES, make_policy
from repro.experiments.ler import SurgeryLerConfig, prepared_pipeline
from repro.noise import GOOGLE, IBM, NoiseModel
from repro.noise.hardware import SHERBROOKE
from repro.stab import Circuit, circuit_to_dem
from repro.stab.frame import _KIND_BY_NAME
from repro.stab.gates import GATES, GateKind


def _assert_parity(circuit, **kwargs):
    new = circuit_to_dem(circuit, **kwargs)
    assert new.errors, "parity on an empty model proves nothing"
    assert new.errors == forward_circuit_to_dem(circuit, **kwargs).errors
    return new


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("hardware", [IBM, GOOGLE], ids=lambda hw: hw.name)
def test_surgery_circuits_match_oracle(hardware, policy_name, d):
    # T_P' = T_P + 250 ns gives every policy, Extra Rounds included, a schedule
    config = SurgeryLerConfig(
        distance=d,
        hardware=hardware,
        policy_name=policy_name,
        tau_ns=1000.0,
        t_pp_ns=hardware.cycle_time_ns + 250.0,
    )
    pipe = prepared_pipeline(config, make_policy(policy_name))
    assert _assert_parity(pipe.artifacts.circuit).errors == pipe.dem.errors


def test_repetition_circuit_matches_oracle():
    noise = NoiseModel(hardware=SHERBROOKE, p=1e-2)
    art = repetition_experiment(5, 3, noise, idle_before_last_round_ns=500.0)
    _assert_parity(art.circuit)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_memory_circuit_matches_oracle(basis, ibm_noise):
    _assert_parity(memory_experiment(3, 4, ibm_noise, basis=basis).circuit)


def test_teleport_circuit_matches_oracle(google_noise):
    _assert_parity(teleport_experiment(TeleportSpec(distance=3, noise=google_noise)).circuit)


@pytest.mark.parametrize("ls_basis", ["X", "Z"])
def test_multi_surgery_circuit_matches_oracle(ls_basis, ibm_noise):
    spec = MultiSurgerySpec(num_patches=3, distance=3, noise=ibm_noise, ls_basis=ls_basis)
    _assert_parity(multi_patch_surgery_experiment(spec).circuit)


# ---------------------------------------------------------------- random fuzz

_NAMES = sorted(_KIND_BY_NAME)


def _random_circuit(seed: int, num_qubits: int = 6) -> Circuit:
    """Every instruction of the frame simulator, twice, in random order.

    Two-qubit layers may chain through a shared qubit; noise layers may
    repeat a target; detectors and observables read random records.
    """
    rng = random.Random(seed)
    qubits = range(num_qubits)
    c = Circuit()
    c.append("R", qubits)
    names = _NAMES * 2
    rng.shuffle(names)
    records: list[int] = []
    for name in names:
        gate = GATES[name]
        if gate.targets_per_op == 2:
            targets = []
            for _ in range(rng.randint(1, 3)):
                targets.extend(rng.sample(qubits, 2))
        elif gate.kind == GateKind.NOISE_1:
            targets = rng.choices(qubits, k=rng.randint(1, 4))
        else:
            targets = rng.sample(qubits, rng.randint(1, 4))
        if name == "PAULI_CHANNEL_1":
            args = [rng.choice([0.0, rng.uniform(0.01, 0.1)]) for _ in range(3)]
        else:
            args = [rng.uniform(0.01, 0.2)] * gate.num_probabilities
        new = c.append(name, targets, args)
        records.extend(new)
        for r in new:
            earlier = rng.sample(records, min(len(records), rng.randint(0, 2)))
            c.detector(sorted({r, *earlier}))
        if new and rng.random() < 0.5:
            c.observable_include(rng.randint(0, 1), rng.sample(records, 1))
    final = c.append("M", qubits)
    for r in final:
        c.detector([r, *rng.sample(records, 1)])
    c.observable_include(0, final[:2])
    return c


def test_fuzz_covers_every_frame_instruction():
    names = {inst.name for inst in _random_circuit(0).instructions}
    assert set(_KIND_BY_NAME) <= names
    assert any(
        inst.name == "PAULI_CHANNEL_1" and 0.0 in inst.args
        for seed in range(10)
        for inst in _random_circuit(seed).instructions
    )


@pytest.mark.parametrize("seed", range(40))
def test_random_circuits_match_oracle(seed):
    circuit = _random_circuit(seed)
    probs = sorted(e.probability for e in _assert_parity(circuit).errors)
    # a median cut drops half the mechanisms after merging; a negative cut
    # keeps zero-probability ones, which exposes which zero-probability
    # channel cases each extractor enumerates
    cut = probs[len(probs) // 2]
    kept = _assert_parity(circuit, min_probability=cut)
    assert 0 < len(kept.errors) < len(probs)
    assert all(e.probability > cut for e in kept.errors)
    _assert_parity(circuit, min_probability=-1.0)
