"""Distance-2 surface-code error detection on the seven-qubit chip.

The target chip of the paper (Fig. 6) is one distance-2 surface-code
patch: four data qubits on the corners, three ancillas in the middle.
This script runs repeated syndrome extraction through the full stack,
injects a physical X error on a data qubit mid-experiment, and shows
the Z-stabilizers catching it — the paper's motivating application for
SOMQ ("well-patterned error syndrome measurements ... presenting high
parallelism").

Run: ``python examples/surface_code_detection.py``
"""

from repro.experiments.runner import ExperimentSetup
from repro.core import rotated_surface_instantiation
from repro.experiments.surface_code import (
    format_surface_code_report,
    looped_surface_code_program,
    run_looped_surface_code_experiment,
    run_rotated_surface_experiment,
)
from repro.workloads.surface_code import rotated_surface_circuit


def show_compiled_round() -> None:
    setup = ExperimentSetup.create(isa=rotated_surface_instantiation(2),
                                   seed=0)
    assembled = setup.compile_circuit(rotated_surface_circuit(2, rounds=1),
                                      initialize_cycles=100)
    print("one compiled syndrome round "
          "(note the SOMQ masks covering both Z-ancillas):")
    print(assembled.program.to_assembly())


def show_looped_binary() -> None:
    """The instruction-memory-friendly form: one round in a counted
    SUB/CMP/BR loop instead of compile-time unrolling — the dataflow
    pass resolves the trip count, so it still rides shot replay."""
    print("\nthe same rounds as a counted-loop binary:")
    print(looped_surface_code_program(rounds=4))
    result = run_looped_surface_code_experiment(rounds=4, shots=40)
    stats = result.engine_stats
    print(f"looped run: engine={stats.engine}, "
          f"bounded loops={stats.bounded_loops}, "
          f"{stats.replay_shots}/{stats.shots_total} shots replayed, "
          f"clean-round detection fraction="
          f"{result.detection_fraction(0):.2f}")


def main() -> None:
    show_compiled_round()
    show_looped_binary()
    error = ("X", 5)
    clean = run_rotated_surface_experiment(2, rounds=3, shots=40)
    faulty = run_rotated_surface_experiment(2, rounds=3, error=error,
                                            error_after_round=0, shots=40)
    print(format_surface_code_report(clean, faulty, error))
    print("\nround 0 precedes the fault; rounds 1+ detect it on "
          "Z-check (2) = Z0 Z5, exactly the stabilizer X_5 anticommutes "
          "with.")


if __name__ == "__main__":
    main()
