"""The rotated surface-code family cases at distance 2 (the seven-qubit
chip of Fig. 6), plus its detection experiments."""

import pytest

from test_rotated_surface import CircuitCases, SyndromeCases, TopologyCases

from repro.compiler import schedule_asap
from repro.core.operations import default_operation_set
from repro.experiments.surface_code import (
    run_looped_surface_code_experiment,
    run_rotated_surface_experiment,
)
from repro.quantum import NoiseModel
from repro.topology.library import rotated_surface_layout
from repro.workloads.surface_code import (
    expected_rotated_z_syndrome,
    rotated_surface_circuit,
)


class TestLayout(TopologyCases):
    distance = 2

    def test_partition_covers_chip(self):
        layout = self.layout
        qubits = (layout.data_qubits + tuple(layout.z_checks)
                  + tuple(layout.x_checks))
        assert sorted(qubits) == list(range(7))

    def test_z_checks_are_disjoint(self):
        used = []
        for ancilla, data in self.layout.z_checks.items():
            used.extend((ancilla,) + data)
        assert len(used) == len(set(used))


class TestCircuit(CircuitCases):
    distance = 2

    def test_compiles_and_assembles_on_the_32bit_instantiation(self):
        self.check_compiles_and_assembles()

    def test_error_injection(self):
        circuit = rotated_surface_circuit(2, rounds=2, error=("X", 0),
                                          error_after_round=0)
        x_on_data = [op for op in circuit
                     if op.name == "X" and op.qubits == (0,)]
        assert len(x_on_data) == 1

    def test_z_error_compiles_to_pulse_pair(self):
        circuit = rotated_surface_circuit(2, rounds=1, error=("Z", 5))
        names_on_5 = [op.name for op in circuit if op.qubits == (5,)]
        assert names_on_5[-2:] == ["Y", "X"]

    def test_rounds_are_parallel(self):
        ops = default_operation_set()
        schedule = schedule_asap(rotated_surface_circuit(2, rounds=3), ops)
        # The two Z-checks run concurrently: parallelism well above 1.
        assert len(schedule.scheduled) / len(schedule.cycles()) > 1.5


class TestSyndromes(SyndromeCases):
    distance = 2

    def test_expected_syndrome_mapping(self):
        def fired(error):
            return {ancilla for ancilla, bit
                    in expected_rotated_z_syndrome(2, error).z_checks if bit}

        assert fired(None) == set()
        assert fired(("X", 0)) == fired(("X", 5)) == {2}
        assert fired(("X", 1)) == fired(("X", 6)) == {4}
        # Z errors commute with Z-checks: silent.
        assert fired(("Z", 0)) == set()


class TestDetectionExperiment:
    def test_clean_rounds_silent(self):
        result = run_rotated_surface_experiment(2, rounds=2, shots=10)
        for round_index in range(2):
            assert result.detection_fraction(round_index) == 0.0

    @pytest.mark.parametrize("qubit", rotated_surface_layout(2).data_qubits)
    def test_x_error_detected_on_every_data_qubit(self, qubit):
        result = run_rotated_surface_experiment(
            2, rounds=2, error=("X", qubit), error_after_round=0, shots=10)
        assert result.detection_fraction(0) == 0.0   # before injection
        assert result.detection_fraction(1) == 1.0   # after injection
        expected = expected_rotated_z_syndrome(2, ("X", qubit))
        for shot in result.syndromes_per_shot:
            assert shot[1] == expected

    def test_z_error_invisible_to_z_checks(self):
        # Detecting Z errors needs the X-check — a distance-2 property
        # check: Z on data is silent in the Z syndrome.
        result = run_rotated_surface_experiment(
            2, rounds=2, error=("Z", 0), error_after_round=0, shots=10)
        assert result.detection_fraction(1) == 0.0

    def test_syndrome_persists_across_rounds(self):
        result = run_rotated_surface_experiment(
            2, rounds=3, error=("X", 6), error_after_round=0, shots=8)
        # An uncorrected X error keeps firing in every later round.
        assert result.detection_fraction(1) == 1.0
        assert result.detection_fraction(2) == 1.0

    def test_looped_binary_matches_compiled_clean_rounds(self):
        """The counted-loop syndrome binary: quiet Z-checks on clean
        |0000> data, every round — and the looping program genuinely
        rides the replay engine (the dataflow pass resolved the trip
        count; a conservative analysis would not block it, but it
        would at least mis-bound the measurement count)."""
        result = run_looped_surface_code_experiment(rounds=3, shots=12)
        assert result.distance == 2
        assert result.rounds == 3
        for round_index in range(3):
            assert result.detection_fraction(round_index) == 0.0
        stats = result.engine_stats
        assert stats.engine == "replay"
        assert stats.fallback_reason is None
        assert stats.bounded_loops == 1
        assert stats.replay_shots > 0

    def test_noisy_hardware_blurs_detection(self):
        # With the calibrated noise model, clean rounds show a real
        # false-positive rate (two 9.5 %-error readouts plus four
        # 7 %-error CZs per round) and the true error is still clearly
        # separated — the regime actual distance-2 demos operate in.
        # T1/T2 decoherence keeps the seven qubits on the dense plant.
        result = run_rotated_surface_experiment(
            2, rounds=2, error=("X", 0), error_after_round=0, shots=200,
            noise=NoiseModel(), seed=31)
        assert result.plant_backend == "dense"
        false_positive = result.detection_fraction(0)
        detection = result.detection_fraction(1)
        assert false_positive < 0.45
        assert detection > 0.7
        assert detection > false_positive + 0.3
