"""Stabilizer-circuit substrate: circuits, simulators, detector error models.

This package is a from-scratch replacement for the subset of Stim used by the
paper's ``lattice-sim`` generator:

* :class:`~repro.stab.circuit.Circuit` — columnar circuit IR with detectors
  and observables,
* :class:`~repro.stab.tableau.TableauSimulator` — exact CHP simulator used as
  a verification oracle,
* :class:`~repro.stab.frame.FrameSimulator` — vectorized Pauli-frame sampler,
* :func:`~repro.stab.dem.circuit_to_dem` — detector-error-model extraction,
* :class:`~repro.stab.sampler.DemSampler` — sparse GF(2) DEM sampling.
"""

from .circuit import Circuit, Instruction
from .dem import DemError, DetectorErrorModel, circuit_to_dem
from .frame import FrameSimulator, sample_detectors
from .gates import GATES, GateKind
from .pauli import PauliString
from .sampler import DemSampler
from .tableau import TableauSimulator, simulate_circuit
from .text import circuit_from_text, circuit_to_text

__all__ = [
    "Circuit",
    "Instruction",
    "DemError",
    "DetectorErrorModel",
    "circuit_to_dem",
    "FrameSimulator",
    "sample_detectors",
    "GATES",
    "GateKind",
    "PauliString",
    "DemSampler",
    "TableauSimulator",
    "simulate_circuit",
    "circuit_from_text",
    "circuit_to_text",
]
