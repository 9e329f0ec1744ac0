"""Rabi-oscillation calibration experiment (Section 5).

"The Rabi oscillation applies an x-rotation pulse on the qubit after
initialization and then measures it ... this experiment calibrated the
amplitude of the X gate pulse."

The reproduction registers the uncalibrated ``X_AMP_<i>`` operations in
a fresh operation configuration (compile-time operation definition,
Section 3.2), sweeps the amplitude index, and locates the pi-pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.isa import two_qubit_instantiation
from repro.core.operations import (
    add_rabi_amplitude_operations,
    default_operation_set,
)
from repro.experiments.analysis import correct_population_for_readout
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.workloads.rabi import (
    fit_pi_pulse_step,
    rabi_ideal_curve,
    rabi_step_circuit,
)


@dataclass
class RabiResult:
    """The measured oscillation and the calibration outcome."""

    steps: list[int]
    populations: list[float]          # readout-corrected P(1)
    ideal: list[float]
    pi_pulse_step: int

    def max_deviation(self) -> float:
        """Worst per-point deviation from the ideal sinusoid."""
        return max(abs(m - i)
                   for m, i in zip(self.populations, self.ideal))


def run_rabi_experiment(num_steps: int = 21, shots: int = 200,
                        seed: int = 13,
                        noise: NoiseModel | None = None,
                        qubit: int = 2) -> RabiResult:
    """Sweep the pulse amplitude and fit the pi pulse."""
    operations = default_operation_set()
    add_rabi_amplitude_operations(operations, num_steps,
                                  max_angle=2.0 * math.pi)
    isa = two_qubit_instantiation(operations)
    setup = ExperimentSetup.create(isa=isa, noise=noise, seed=seed)
    readout = setup.machine.plant.noise.readout
    populations = []
    for step in range(num_steps):
        circuit = rabi_step_circuit(step, qubit=qubit)
        counts = setup.run_circuit_counts(circuit, shots)
        raw = counts.excited_fraction(qubit)
        populations.append(correct_population_for_readout(raw, readout))
    return RabiResult(
        steps=list(range(num_steps)),
        populations=populations,
        ideal=rabi_ideal_curve(num_steps),
        pi_pulse_step=fit_pi_pulse_step(populations))
