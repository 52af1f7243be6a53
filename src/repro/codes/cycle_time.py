"""Syndrome-generation cycle-time models for different QEC codes (Fig. 3a).

Different codes run different numbers of CNOT layers per syndrome cycle:

* rotated surface code — 4 CNOT layers,
* color code (hexagonal, flag-based extraction) — typically 6-8 CNOT layers
  plus flag measurements,
* bivariate-bicycle qLDPC codes — 7 CNOT layers (Bravyi et al. 2024, as
  cited by the paper in Sec. 3.4.2).

These models produce the logical-clock periods that create the slack studied
in the case studies (Fig. 4) and the ``T_P'`` values of the Hybrid-policy
sweeps (1 to 3 extra CNOT layers -> +50/ +100/ +150 ns on IBM-like gates).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..noise.hardware import HardwareConfig

__all__ = ["CodeCycleModel", "SURFACE_CODE", "COLOR_CODE", "QLDPC_BB", "cycle_time_ns"]


@dataclass(frozen=True)
class CodeCycleModel:
    """Structure of one code's syndrome-generation cycle."""

    name: str
    cnot_layers: int
    hadamard_layers: int = 2
    #: measurement passes per cycle (flag-based schemes measure flags too)
    measurement_passes: int = 1

    def cycle_time_ns(self, hw: HardwareConfig) -> float:
        """Syndrome cycle duration (ns) on hardware ``hw``."""
        return (
            self.hadamard_layers * hw.time_1q_ns
            + self.cnot_layers * hw.time_2q_ns
            + self.measurement_passes * (hw.time_readout_ns + hw.time_reset_ns)
        )


SURFACE_CODE = CodeCycleModel(name="surface", cnot_layers=4)
COLOR_CODE = CodeCycleModel(name="color", cnot_layers=8)
QLDPC_BB = CodeCycleModel(name="qldpc_bb", cnot_layers=7)

#: twist-based lattice surgery (Sec. 3.2.3): patches hosting twist defects
#: need additional CNOTs in the syndrome circuit to measure the 5-body
#: stabilizers around the twist, desynchronizing them from regular patches.
TWIST_SURFACE = CodeCycleModel(name="surface-twist", cnot_layers=5)


def cycle_time_ns(model: CodeCycleModel, hw: HardwareConfig) -> float:
    """Convenience wrapper: syndrome cycle duration of ``model`` on ``hw``."""
    return model.cycle_time_ns(hw)

