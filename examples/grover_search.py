"""Two-qubit Grover's search with state tomography (Section 5).

Runs the search for every marked state |00>..|11> on the simulated
setup, reconstructs the output state by nine-setting Pauli tomography
with maximum-likelihood estimation, and reports the readout-corrected
algorithmic fidelity (paper: 85.6 %, limited by the CZ gate).

Run: ``python examples/grover_search.py``
"""

from repro.experiments.grover import (
    format_grover_report,
    run_grover_experiment,
)
from repro.experiments.runner import ExperimentSetup
from repro.workloads.grover2q import grover2q_circuit


def quick_histogram() -> None:
    """Direct measurement histogram for one oracle (no tomography)."""
    setup = ExperimentSetup.create(seed=1)
    circuit = grover2q_circuit(marked_state=2, include_measurement=True)
    counts = setup.run_circuit_counts(circuit, shots=400).outcome_counts(0, 2)
    print("oracle |10>: measurement histogram over 400 shots")
    for outcome in range(4):
        bar = "#" * (counts.get(outcome, 0) // 8)
        print(f"  |{outcome:02b}>: {counts.get(outcome, 0):4d} {bar}")


def main() -> None:
    quick_histogram()
    print("\nfull tomography for all four oracles (takes a while)...")
    result = run_grover_experiment(shots=150, seed=17)
    print(format_grover_report(result))


if __name__ == "__main__":
    main()
