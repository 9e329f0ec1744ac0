"""The two-qubit AllXY experiment (Fig. 11).

Runs the 42-step interleaved AllXY sequence on the two-qubit setup,
corrects the per-step excited-state fraction for readout errors, and
compares against the ideal staircase — "the final measurement result
of the entire experiment (blue dots), which matches well with the
expectation (red line)".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.analysis import (
    correct_population_for_readout,
    staircase_rms_error,
)
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.workloads.allxy import (
    allxy_two_qubit_circuit,
    allxy_two_qubit_expected,
)


@dataclass
class AllXYResult:
    """Per-step staircase data for both qubits."""

    steps: list[int]
    measured_a: list[float]    # readout-corrected F_|1> of qubit 0
    measured_b: list[float]    # readout-corrected F_|1> of qubit 2
    expected_a: list[float]
    expected_b: list[float]

    def rms_error_a(self) -> float:
        """Staircase deviation of qubit 0."""
        return staircase_rms_error(self.measured_a, self.expected_a)

    def rms_error_b(self) -> float:
        """Staircase deviation of qubit 2."""
        return staircase_rms_error(self.measured_b, self.expected_b)


def run_allxy_experiment(shots: int = 200, seed: int = 7,
                         noise: NoiseModel | None = None,
                         qubit_a: int = 0, qubit_b: int = 2
                         ) -> AllXYResult:
    """Execute all 42 gate-pair combinations and collect the staircase."""
    setup = ExperimentSetup.create(noise=noise, seed=seed)
    readout = setup.machine.plant.noise.readout
    steps = list(range(42))
    measured_a: list[float] = []
    measured_b: list[float] = []
    expected_a: list[float] = []
    expected_b: list[float] = []
    for step in steps:
        circuit = allxy_two_qubit_circuit(step, qubit_a=qubit_a,
                                          qubit_b=qubit_b)
        counts = setup.run_circuit_counts(circuit, shots)
        raw_a = counts.excited_fraction(qubit_a)
        raw_b = counts.excited_fraction(qubit_b)
        measured_a.append(correct_population_for_readout(raw_a, readout))
        measured_b.append(correct_population_for_readout(raw_b, readout))
        ideal_a, ideal_b = allxy_two_qubit_expected(step)
        expected_a.append(ideal_a)
        expected_b.append(ideal_b)
    return AllXYResult(steps=steps, measured_a=measured_a,
                       measured_b=measured_b, expected_a=expected_a,
                       expected_b=expected_b)


def format_allxy_table(result: AllXYResult) -> str:
    """Render the Fig. 11 series as text (example output)."""
    lines = ["step  F|1> q0 (meas/ideal)   F|1> q2 (meas/ideal)"]
    for i, step in enumerate(result.steps):
        lines.append(
            f"{step:4d}  {result.measured_a[i]:.3f} / "
            f"{result.expected_a[i]:.1f}            "
            f"{result.measured_b[i]:.3f} / {result.expected_b[i]:.1f}")
    lines.append(f"RMS error: q0 {result.rms_error_a():.3f}, "
                 f"q2 {result.rms_error_b():.3f}")
    return "\n".join(lines)
