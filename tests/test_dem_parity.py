"""Exact parity of the backward DEM extractor with the forward oracle.

:func:`repro.stab.circuit_to_dem` walks the circuit once, backwards, with
per-qubit sensitivity bitsets; ``dem_oracle.forward_circuit_to_dem``
propagates every noise component forward as its own frame column.  The two
must give ``==`` ``DemError`` lists — same signatures, same order and the
same probabilities to the last bit — because stored point records are
keyed on decode-path code locked under ``STORE_SALT``, which the backward
pass did not bump.

Every check runs both backward walks: the C one (``dem_walk`` in ``uf.c``)
and the Python fallback, forced with ``factories.numpy_plane()``.

Surgery circuits only use CX/H/R/RX/MR/MX, so the seeded random circuits
are the coverage for every other instruction (CZ, SWAP, S, SQRT_X, M, Y
noise, PAULI_CHANNEL_1 with zero entries, CX chains through a shared qubit).
"""

import contextlib
import random

import pytest
from dem_oracle import forward_circuit_to_dem
from factories import numpy_plane

from repro.codes import (
    MultiSurgerySpec,
    memory_experiment,
    multi_patch_surgery_experiment,
)
from repro.codes.repetition import repetition_experiment
from repro.core.policies import POLICIES, make_policy
from repro.decoders.kernels import cext
from repro.experiments.ler import SurgeryLerConfig, _synthesize, prepared_pipeline
from repro.noise import GOOGLE, IBM, NoiseModel
from repro.noise.hardware import SHERBROOKE
from repro.stab import Circuit, circuit_to_dem
from repro.stab.dem import _KIND_BY_NAME, dem_walk
from repro.stab.gates import GATES, GateKind

requires_cc = pytest.mark.skipif(cext.library() is None, reason="the C walk cannot build")


def _walks():
    """``(name, context)`` of each walk this host can run."""
    if cext.library() is not None:
        yield "cext", contextlib.nullcontext
    yield "python", numpy_plane


def _both_walks(circuit, **kwargs):
    """``{walk: model}`` of ``circuit`` from each available walk."""
    out = {}
    for name, context in _walks():
        with context():
            assert dem_walk() == name
            out[name] = circuit_to_dem(circuit, **kwargs)
    return out


def _assert_parity(circuit, **kwargs):
    oracle = forward_circuit_to_dem(circuit, **kwargs).errors
    assert oracle, "parity on an empty model proves nothing"
    models = _both_walks(circuit, **kwargs)
    for walk, model in models.items():
        assert model.errors == oracle, walk
    return models["python"]


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


# ---------------------------------------------------------------- edge cases


def test_noiseless_circuit_gives_an_empty_model():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("H", [0])
    c.append("CX", [0, 1])
    recs = c.append("M", [0, 1])
    c.detector(recs)
    c.observable_include(0, recs[:1])
    for walk, model in _both_walks(c).items():
        assert model.errors == [], walk
        assert (model.num_detectors, model.num_observables) == (1, 1)
    assert forward_circuit_to_dem(c).errors == []


def test_positive_min_probability_matches_oracle(ibm_noise):
    circuit = memory_experiment(3, 3, ibm_noise, basis="Z").circuit
    probs = sorted(e.probability for e in circuit_to_dem(circuit).errors)
    cut = probs[len(probs) // 2]
    assert cut > 0
    kept = _assert_parity(circuit, min_probability=cut)
    assert 0 < len(kept.errors) < len(probs)
    assert all(e.probability > cut for e in kept.errors)


def _word_straddling_circuit(rounds: int = 140) -> Circuit:
    """Two reset-measured qubits whose detectors chain through 64-bit words.

    Detector ``k`` compares qubit 0's records ``k`` and ``k + 1``, so an X
    flip before qubit 0's ``k``-th measurement flips detectors ``k - 1`` and
    ``k`` -- (63, 64) and (127, 128) straddle word boundaries.  Qubit 1's
    detectors follow qubit 0's, so a correlated two-qubit case spans words
    ``k // 64`` to ``(rounds + k) // 64``; qubit 0's last record feeds the
    observable, past every detector.
    """
    c = Circuit()
    c.append("R", [0, 1])
    recs0, recs1 = [], []
    for _ in range(rounds):
        c.append("DEPOLARIZE2", [0, 1], [0.03])
        c.append("X_ERROR", [0], [0.01])
        recs0 += c.append("MR", [0])
        recs1 += c.append("MR", [1])
    for recs in (recs0, recs1):
        for k in range(rounds - 1):
            c.detector([recs[k], recs[k + 1]])
    c.observable_include(0, recs0[-1:])
    return c


def test_signatures_straddling_word_boundaries_match_oracle():
    circuit = _word_straddling_circuit()
    errors = _assert_parity(circuit).errors
    signatures = {(e.detectors, e.observables) for e in errors}
    assert ((63, 64), ()) in signatures
    assert ((127, 128), ()) in signatures
    assert ((63, 64, 63 + 139, 64 + 139), ()) in signatures
    assert ((138,), (0,)) in signatures


@requires_cc
def test_d9_cold_point_c_walk_equals_python_walk():
    """The benchmark's largest cold point, past the oracle's reach."""
    config = SurgeryLerConfig(
        distance=9, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3
    )
    _, artifacts = _synthesize(config, make_policy("active"))
    models = _both_walks(artifacts.circuit)
    assert len(models["cext"].errors) > 5000
    assert models["cext"].errors == models["python"].errors


@requires_cc
def test_c_walk_rejects_a_circuit_whose_bookkeeping_disagrees():
    """The C walk trusts the encoded indices, so inconsistent circuits
    (columns whose counts were edited behind ``Circuit.append``) are refused first."""
    c = Circuit()
    c.append("R", [0, 1])
    c.append("X_ERROR", [0], [0.1])
    c.detector(c.append("M", [0, 1])[:1])
    stray = Circuit()
    stray.extend(c)
    stray.append("X_ERROR", [5], [0.1])
    stray.num_qubits = c.num_qubits
    with pytest.raises(ValueError, match="qubit count"):
        circuit_to_dem(stray)
    stray = Circuit()
    stray.extend(c)
    stray.append("M", [0])
    stray.num_measurements = c.num_measurements
    with pytest.raises(ValueError, match="record count"):
        circuit_to_dem(stray)
