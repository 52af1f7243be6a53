"""Noise and hardware models: Table 3 presets, Pauli-twirl idling, DD decay."""

from .dd import BRISBANE_DD, DDModel
from .hardware import GOOGLE, IBM, PRESETS, QUERA, HardwareConfig
from .idle import idle_pauli_probs
from .models import NoiseModel

__all__ = [
    "BRISBANE_DD",
    "DDModel",
    "GOOGLE",
    "IBM",
    "PRESETS",
    "QUERA",
    "HardwareConfig",
    "idle_pauli_probs",
    "NoiseModel",
]
