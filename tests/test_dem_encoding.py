"""The DEM walk's input, encoded from the circuit's columns.

:func:`repro.stab.dem._encode` reads :meth:`Circuit.columns`; the oracle in
``encode_oracle.py`` walks the instruction and detector views as the
encoder did before circuits became columnar.  Both must return ``==``
arrays, array for array, on every pinned generator circuit, on the random
circuits that use every instruction, and on the benchmark's two cold
points.  A cold analysis must also build no :class:`Instruction` at all.
"""

import numpy as np
import pytest
from encode_oracle import encode_instructions
from test_circuit_digests import CASES
from test_dem_parity import _random_circuit

from repro.core.policies import make_policy
from repro.experiments.ler import (
    SurgeryLerConfig,
    _synthesize,
    clear_pipeline_cache,
    prepared_pipeline,
)
from repro.noise import IBM
from repro.stab import circuit as circuit_module
from repro.stab.dem import _encode

FIELDS = ("ops", "tptr", "targets", "cptr", "cview", "cprob")


def _assert_encodings_equal(circuit):
    got, want = _encode(circuit), encode_instructions(circuit)
    for name, a, b in zip(FIELDS, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert (a == b).all(), name
    rec, rec_want = got[-1], want[-1]
    assert rec.n_words == rec_want.n_words
    for name in ("ptr", "word", "bits"):
        a, b = getattr(rec, name), getattr(rec_want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_columnar_encoding_equals_the_instruction_walk(case):
    _assert_encodings_equal(CASES[case]())


@pytest.mark.parametrize("seed", range(5))
def test_columnar_encoding_equals_the_instruction_walk_on_random_circuits(seed):
    _assert_encodings_equal(_random_circuit(seed))


def _cold_point(distance):
    return SurgeryLerConfig(
        distance=distance, hardware=IBM, policy_name="active", tau_ns=1000.0, p=1e-3
    )


@pytest.mark.parametrize("distance", [7, 9])
def test_columnar_encoding_equals_the_instruction_walk_on_cold_points(distance):
    _, art = _synthesize(_cold_point(distance), make_policy("active"))
    _assert_encodings_equal(art.circuit)


def test_cold_pipeline_builds_no_instruction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cold path built an Instruction")

    monkeypatch.setattr(circuit_module, "Instruction", refuse)
    monkeypatch.setattr(circuit_module.Circuit, "_build_instructions", refuse)
    clear_pipeline_cache()
    try:
        pipe = prepared_pipeline(_cold_point(3), make_policy("active"))
    finally:
        clear_pipeline_cache()
    assert pipe.dem.num_errors > 0
    assert "instructions" not in pipe.artifacts.circuit._views
