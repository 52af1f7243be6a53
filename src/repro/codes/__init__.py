"""Code constructions: rotated surface code, repetition code, lattice surgery."""

from .layout import PatchLayout, Plaquette, QubitRegistry, other_basis
from .rotated_surface import MemoryArtifacts, memory_experiment
from .rounds import StabilizerRoundEmitter
from .multi_surgery import (
    MultiSurgeryArtifacts,
    MultiSurgerySpec,
    multi_patch_surgery_experiment,
)
from .surgery import (
    OBS_JOINT,
    OBS_SINGLE,
    OBS_SINGLE_PP,
    SurgeryArtifacts,
    SurgerySpec,
    surgery_experiment,
)

__all__ = [
    "MultiSurgeryArtifacts",
    "MultiSurgerySpec",
    "multi_patch_surgery_experiment",
    "PatchLayout",
    "Plaquette",
    "QubitRegistry",
    "other_basis",
    "MemoryArtifacts",
    "memory_experiment",
    "StabilizerRoundEmitter",
    "OBS_JOINT",
    "OBS_SINGLE",
    "OBS_SINGLE_PP",
    "SurgeryArtifacts",
    "SurgerySpec",
    "surgery_experiment",
]
