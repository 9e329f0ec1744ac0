"""Extension bench — surface-code syndrome extraction and the SOMQ
claim of Section 4.2.

"An application that would benefit significantly from SOMQ is quantum
error correction, which requires performing well-patterned error
syndrome measurements repeatedly presenting high parallelism."

Quantifies that: instruction counts for repeated distance-2 syndrome
rounds with and without SOMQ, plus the end-to-end detection experiment
on the machine.
"""

import pytest

from repro.compiler import CodegenOptions, count_instructions, \
    schedule_asap
from repro.core.operations import default_operation_set
from repro.experiments.surface_code import run_rotated_surface_experiment
from repro.workloads.surface_code import rotated_surface_circuit


def test_somq_benefit_for_syndrome_extraction(benchmark):
    ops = default_operation_set()
    circuit = rotated_surface_circuit(2, rounds=32, include_x_checks=True)

    def count_both():
        schedule = schedule_asap(circuit, ops)
        with_somq = count_instructions(schedule, CodegenOptions(
            timing="ts3", pi_width=3, somq=True, vliw_width=2))
        without = count_instructions(schedule, CodegenOptions(
            timing="ts3", pi_width=3, somq=False, vliw_width=2))
        return with_somq, without

    with_somq, without = benchmark.pedantic(count_both, rounds=1,
                                            iterations=1)
    reduction = 1.0 - with_somq / without
    print(f"\n32 syndrome rounds: {without} words without SOMQ, "
          f"{with_somq} with SOMQ ({reduction * 100:.1f}% reduction)")
    # "Significant" benefit: several times the SR-class few percent
    # (our rounds include the serial fast-conditional ancilla resets,
    # which dilute the merging the bare checks would show).
    assert reduction > 0.10


def test_error_detection_end_to_end(benchmark):
    def run_detection():
        clean = run_rotated_surface_experiment(2, rounds=2, shots=20)
        faulty = run_rotated_surface_experiment(
            2, rounds=2, error=("X", 5), error_after_round=0, shots=20)
        return clean, faulty

    clean, faulty = benchmark.pedantic(run_detection, rounds=1,
                                       iterations=1)
    print(f"\nclean round-1 detection: "
          f"{clean.detection_fraction(1) * 100:.0f}%, "
          f"with X on q5: {faulty.detection_fraction(1) * 100:.0f}%")
    assert clean.detection_fraction(1) == 0.0
    assert faulty.detection_fraction(1) == 1.0
