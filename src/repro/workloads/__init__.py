"""Benchmark circuit generators for the paper's workloads."""

from repro.workloads.allxy import (
    ALLXY_PAIRS,
    allxy_ideal_staircase,
    allxy_single_qubit_circuit,
    allxy_two_qubit_circuit,
    allxy_two_qubit_expected,
    two_qubit_allxy_steps,
)
from repro.workloads.clifford import (
    Clifford,
    average_primitives_per_clifford,
    clifford_from_unitary,
    clifford_group,
    compose,
    inverse,
    random_clifford_sequence,
    recovery_clifford,
)
from repro.workloads.coherence import (
    echo_program,
    ramsey_program,
    ramsey_reference,
    sweep_waits,
    t1_program,
    t1_reference,
)
from repro.workloads.grover2q import (
    grover2q_circuit,
    grover2q_ideal_state,
)
from repro.workloads.grover_sqrt import grover_sqrt_circuit
from repro.workloads.ising import ising_circuit
from repro.workloads.rabi import (
    fit_pi_pulse_step,
    rabi_ideal_curve,
    rabi_step_circuit,
)
from repro.workloads.surface_code import (
    RotatedSyndrome,
    expected_rotated_z_syndrome,
    rotated_surface_circuit,
    rotated_syndrome_round,
)
from repro.workloads.rb import (
    rb_dse_circuit,
    rb_primitive_count,
    rb_sequence_circuit,
    survival_reference,
)

__all__ = [
    "ALLXY_PAIRS",
    "Clifford",
    "allxy_ideal_staircase",
    "allxy_single_qubit_circuit",
    "allxy_two_qubit_circuit",
    "allxy_two_qubit_expected",
    "average_primitives_per_clifford",
    "clifford_from_unitary",
    "clifford_group",
    "echo_program",
    "compose",
    "fit_pi_pulse_step",
    "grover2q_circuit",
    "grover2q_ideal_state",
    "grover_sqrt_circuit",
    "inverse",
    "ising_circuit",
    "rabi_ideal_curve",
    "ramsey_program",
    "ramsey_reference",
    "rabi_step_circuit",
    "random_clifford_sequence",
    "rb_dse_circuit",
    "rb_primitive_count",
    "rb_sequence_circuit",
    "recovery_clifford",
    "RotatedSyndrome",
    "expected_rotated_z_syndrome",
    "rotated_surface_circuit",
    "rotated_syndrome_round",
    "survival_reference",
    "sweep_waits",
    "t1_program",
    "t1_reference",
    "two_qubit_allxy_steps",
]
