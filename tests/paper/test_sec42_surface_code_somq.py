"""Section 4.2: surface-code syndrome extraction and the SOMQ claim.

"An application that would benefit significantly from SOMQ is quantum
error correction, which requires performing well-patterned error
syndrome measurements repeatedly presenting high parallelism."

Quantifies that: instruction counts for repeated distance-2 syndrome
rounds with and without SOMQ, plus the end-to-end detection experiment
on the machine.
"""

from repro.compiler import CodegenOptions, count_instructions, \
    schedule_asap
from repro.core.operations import default_operation_set
from repro.experiments.surface_code import run_rotated_surface_experiment
from repro.workloads.surface_code import rotated_surface_circuit


def test_somq_benefit_for_syndrome_extraction():
    circuit = rotated_surface_circuit(2, rounds=32, include_x_checks=True)
    schedule = schedule_asap(circuit, default_operation_set())
    with_somq = count_instructions(schedule, CodegenOptions(
        timing="ts3", pi_width=3, somq=True, vliw_width=2))
    without = count_instructions(schedule, CodegenOptions(
        timing="ts3", pi_width=3, somq=False, vliw_width=2))
    reduction = 1.0 - with_somq / without
    # "Significant" benefit: several times the SR-class few percent
    # (our rounds include the serial fast-conditional ancilla resets,
    # which dilute the merging the bare checks would show).
    assert reduction > 0.10


def test_error_detection_end_to_end():
    clean = run_rotated_surface_experiment(2, rounds=2, shots=20)
    faulty = run_rotated_surface_experiment(
        2, rounds=2, error=("X", 5), error_after_round=0, shots=20)
    assert clean.detection_fraction(1) == 0.0
    assert faulty.detection_fraction(1) == 1.0
