"""Quantum chip topology substrate (Fig. 6 and Section 3.3)."""

from repro.topology.chip import QuantumChipTopology, QubitPair
from repro.topology.library import (
    CHIP_LIBRARY,
    fully_connected_ion_trap,
    get_chip,
    ibm_qx2,
    linear_chain,
    rotated_surface_chip,
    surface7,
    two_qubit_chip,
)

__all__ = [
    "CHIP_LIBRARY",
    "QuantumChipTopology",
    "QubitPair",
    "fully_connected_ion_trap",
    "get_chip",
    "ibm_qx2",
    "linear_chain",
    "rotated_surface_chip",
    "surface7",
    "two_qubit_chip",
]
