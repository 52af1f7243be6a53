"""Stabilizer-circuit substrate: circuits, detector error models, sampling.

This package is a from-scratch replacement for the subset of Stim used by the
paper's ``lattice-sim`` generator:

* :class:`~repro.stab.circuit.Circuit` — columnar circuit IR with detectors
  and observables,
* :func:`~repro.stab.dem.circuit_to_dem` — detector-error-model extraction,
* :class:`~repro.stab.sampler.DemSampler` — sparse GF(2) DEM sampling.

The CHP tableau and Pauli-frame simulators that check these are test
oracles (``tests/tableau_oracle.py``, ``tests/frame_oracle.py``).
"""

from .circuit import Circuit, Instruction
from .dem import DemError, DetectorErrorModel, circuit_to_dem
from .gates import GATES, GateKind
from .sampler import DemSampler

__all__ = [
    "Circuit",
    "Instruction",
    "DemError",
    "DetectorErrorModel",
    "circuit_to_dem",
    "GATES",
    "GateKind",
    "DemSampler",
]
