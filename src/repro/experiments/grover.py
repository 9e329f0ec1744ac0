"""Two-qubit Grover's search with tomography (Section 5).

"As a proof of concept ... we executed a two-qubit Grover's search
algorithm.  The algorithmic fidelity, i.e., correcting for readout
infidelity, is found to be 85.6 % using quantum tomography with
maximum likelihood estimation.  This fidelity is limited by the CZ
gate."

Pipeline: for each of the four oracles, append each of the nine
tomography pre-rotation settings to the search circuit, execute the
compiled binaries, correct the measured expectation values for readout
error, reconstruct the state by MLE, and compute the fidelity to the
ideal marked state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Circuit
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.quantum.tomography import (
    correct_expectations_for_readout,
    expectation_from_counts,
    measurement_settings,
    mle_tomography,
    state_fidelity,
)
from repro.workloads.grover2q import grover2q_circuit, grover2q_ideal_state

PAPER_GROVER_FIDELITY = 0.856

#: Pre-rotation operation names per readout basis (native gate set).
PREROTATION_NAME = {"X": "YM90", "Y": "X90", "Z": None}


@dataclass
class GroverResult:
    """Tomography fidelity per oracle and the average."""

    fidelities: dict[int, float]

    @property
    def average_fidelity(self) -> float:
        return sum(self.fidelities.values()) / len(self.fidelities)

    def matches_paper(self, tolerance: float = 0.06) -> bool:
        return abs(self.average_fidelity -
                   PAPER_GROVER_FIDELITY) <= tolerance


def tomography_circuit(marked_state: int, bases: tuple[str, str],
                       qubit_a: int = 0, qubit_b: int = 2) -> Circuit:
    """Search circuit + pre-rotations + simultaneous measurement."""
    circuit = grover2q_circuit(marked_state, qubit_a=qubit_a,
                               qubit_b=qubit_b, native=True)
    for qubit, basis in ((qubit_a, bases[0]), (qubit_b, bases[1])):
        name = PREROTATION_NAME[basis]
        if name is not None:
            circuit.add(name, qubit)
    circuit.add("MEASZ", qubit_a)
    circuit.add("MEASZ", qubit_b)
    return circuit


def run_grover_tomography(marked_state: int, setup: ExperimentSetup,
                          shots: int = 300, qubit_a: int = 0,
                          qubit_b: int = 2) -> float:
    """Fidelity of one oracle's output state via MLE tomography."""
    readout = setup.machine.plant.noise.readout
    fidelity_q = readout.assignment_fidelity
    setting_expectations = {}
    for setting in measurement_settings():
        circuit = tomography_circuit(marked_state, setting.bases,
                                     qubit_a, qubit_b)
        counts = setup.run_circuit_counts(circuit, shots).outcome_counts(
            qubit_a, qubit_b)
        expectations = expectation_from_counts(counts)
        corrected = correct_expectations_for_readout(
            expectations, fidelity_q, fidelity_q)
        setting_expectations[setting.bases] = corrected
    rho = mle_tomography(setting_expectations)
    ideal = grover2q_ideal_state(marked_state)
    return state_fidelity(rho, ideal)


def run_grover_experiment(shots: int = 300, seed: int = 17,
                          noise: NoiseModel | None = None
                          ) -> GroverResult:
    """All four oracles; returns per-oracle and average fidelities."""
    setup = ExperimentSetup.create(noise=noise, seed=seed)
    fidelities = {}
    for marked_state in range(4):
        fidelities[marked_state] = run_grover_tomography(
            marked_state, setup, shots=shots)
    return GroverResult(fidelities=fidelities)


def format_grover_report(result: GroverResult) -> str:
    """Render per-oracle fidelities vs the paper's average."""
    lines = ["two-qubit Grover search, MLE tomography fidelity:"]
    for marked_state, fidelity in sorted(result.fidelities.items()):
        lines.append(f"  oracle |{marked_state:02b}>: "
                     f"{fidelity * 100:.1f}%")
    lines.append(f"  average: {result.average_fidelity * 100:.1f}%  "
                 f"(paper: 85.6%, CZ-limited)")
    return "\n".join(lines)
