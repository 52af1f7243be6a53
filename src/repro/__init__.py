"""repro: reproduction of "Synchronization for Fault-Tolerant Quantum Computers".

(Maurya & Tannu, ISCA 2025, arXiv:2506.10258.)

The package layers, bottom to top:

* :mod:`repro.stab` - from-scratch stabilizer substrate (circuits, tableau
  and Pauli-frame simulators, detector error models) replacing Stim;
* :mod:`repro.decoders` - union-find, MWPM, lookup-table and hierarchical
  decoders replacing PyMatching;
* :mod:`repro.codes` - rotated surface code, repetition code, and
  lattice-surgery circuit generation (the paper's ``lattice-sim``);
* :mod:`repro.noise` / :mod:`repro.timing` - Table-3 hardware models,
  Pauli-twirl idling, logical clocks and idle schedules;
* :mod:`repro.core` - the paper's contribution: Passive/Active/Hybrid
  synchronization policies, slack solvers (Eq. 1-2), and the Fig. 12
  synchronization microarchitecture;
* :mod:`repro.workloads` / :mod:`repro.casestudies` - MQTBench-style
  benchmarks, the Azure-QRE-substitute resource estimator, and the
  cultivation / qLDPC desynchronization case studies;
* :mod:`repro.experiments` - end-to-end LER pipelines and the resumable,
  store-backed sweep scheduler;
* :mod:`repro.figures` - the figure registry: one spec per paper figure or
  table, holding its params, sweeps, row builder and paper checks.

Quickstart::

    from repro import GOOGLE, SurgeryLerConfig, make_policy, run_surgery_ler

    config = SurgeryLerConfig(distance=3, hardware=GOOGLE,
                              policy_name="active", tau_ns=1000.0)
    result = run_surgery_ler(config, make_policy("active"), shots=20_000, rng=0)
    print(result.estimates)
"""

from .core import (
    POLICIES,
    ActiveIntraPolicy,
    ActivePolicy,
    ExtraRoundsPolicy,
    HybridPolicy,
    IdealPolicy,
    PassivePolicy,
    PolicyNotApplicableError,
    QECController,
    SynchronizationEngine,
    SyncPlan,
    SyncScenario,
    extra_rounds_solution,
    hybrid_solution,
    make_policy,
)
from .experiments import LerResult, SurgeryLerConfig, run_surgery_ler
from .noise import GOOGLE, IBM, QUERA, HardwareConfig, NoiseModel

# single source of truth check: tests assert this matches pyproject.toml
__version__ = "0.8.0"

__all__ = [
    "POLICIES",
    "ActiveIntraPolicy",
    "ActivePolicy",
    "ExtraRoundsPolicy",
    "HybridPolicy",
    "IdealPolicy",
    "PassivePolicy",
    "PolicyNotApplicableError",
    "QECController",
    "SynchronizationEngine",
    "SyncPlan",
    "SyncScenario",
    "extra_rounds_solution",
    "hybrid_solution",
    "make_policy",
    "LerResult",
    "SurgeryLerConfig",
    "run_surgery_ler",
    "GOOGLE",
    "IBM",
    "QUERA",
    "HardwareConfig",
    "NoiseModel",
    "__version__",
]
