"""Quantum-state substrate: gates, the dense and stabilizer simulators,
noise, plant, tomography."""

from repro.quantum.backend import DenseBackend, PlantBackend
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import (
    DecoherenceModel,
    GateErrorModel,
    NoiseModel,
    ReadoutErrorModel,
)
from repro.quantum.plant import AppliedOperation, QuantumPlant
from repro.quantum.stabilizer import (
    CliffordAction,
    StabilizerBackend,
    StabilizerTableau,
    clifford_action_of,
    is_clifford,
)

__all__ = [
    "AppliedOperation",
    "CliffordAction",
    "DecoherenceModel",
    "DenseBackend",
    "DensityMatrix",
    "GateErrorModel",
    "NoiseModel",
    "PlantBackend",
    "QuantumPlant",
    "ReadoutErrorModel",
    "StabilizerBackend",
    "StabilizerTableau",
    "clifford_action_of",
    "is_clifford",
]
