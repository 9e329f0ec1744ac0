"""Tests for AllXY, Rabi, Ising, Grover-sqrt and Grover-2q workloads."""

import pytest

from quantum_oracle import zero_state
from repro.quantum import gates
from repro.workloads.allxy import (
    ALLXY_PAIRS,
    allxy_ideal_staircase,
    allxy_single_qubit_circuit,
    allxy_two_qubit_circuit,
    allxy_two_qubit_expected,
    two_qubit_allxy_steps,
)
from repro.workloads.grover2q import grover2q_circuit, grover2q_ideal_state
from repro.workloads.grover_sqrt import (
    grover_sqrt_circuit,
    multi_controlled_z,
    toffoli,
)
from repro.workloads.ising import ising_circuit
from repro.workloads.rabi import (
    fit_pi_pulse_step,
    rabi_ideal_curve,
    rabi_step_circuit,
)
from repro.compiler.ir import Circuit


def simulate(circuit, num_qubits):
    state = zero_state(num_qubits)
    for op in circuit:
        if op.name == "MEASZ":
            continue
        state.apply_gate(gates.gate_matrix(op.name), op.qubits)
    return state


class TestAllXY:
    def test_21_pairs(self):
        assert len(ALLXY_PAIRS) == 21

    def test_staircase_shape(self):
        staircase = allxy_ideal_staircase()
        assert staircase[:5] == [0.0] * 5
        assert staircase[5:17] == [0.5] * 12
        assert staircase[17:] == [1.0] * 4

    @pytest.mark.parametrize("step", range(21))
    def test_pairs_produce_expected_population(self, step):
        circuit = allxy_single_qubit_circuit(step)
        state = simulate(circuit, 1)
        expected = ALLXY_PAIRS[step][2]
        assert state.measure_probability_one(0) == pytest.approx(
            expected, abs=1e-9)

    def test_two_qubit_steps_interleaving(self):
        steps = two_qubit_allxy_steps()
        assert len(steps) == 42
        # Qubit A repeats each pair twice; qubit B cycles the sequence.
        assert [a for a, _ in steps[:6]] == [0, 0, 1, 1, 2, 2]
        assert [b for _, b in steps[:4]] == [0, 1, 2, 3]
        assert steps[21][1] == 0  # second half restarts B's sequence

    @pytest.mark.parametrize("step", [0, 7, 21, 29, 41])
    def test_two_qubit_circuit_populations(self, step):
        circuit = allxy_two_qubit_circuit(step, qubit_a=0, qubit_b=1,
                                          num_qubits=2)
        state = simulate(circuit, 2)
        expected_a, expected_b = allxy_two_qubit_expected(step)
        assert state.measure_probability_one(0) == pytest.approx(
            expected_a, abs=1e-9)
        assert state.measure_probability_one(1) == pytest.approx(
            expected_b, abs=1e-9)


class TestRabi:
    def test_ideal_curve_endpoints(self):
        curve = rabi_ideal_curve(21)
        assert curve[0] == pytest.approx(0.0)
        assert curve[10] == pytest.approx(1.0)  # pi pulse at midpoint
        assert curve[-1] == pytest.approx(0.0, abs=1e-9)

    def test_fit_pi_pulse(self):
        curve = rabi_ideal_curve(21)
        assert fit_pi_pulse_step(curve) == 10

    def test_step_circuit(self):
        circuit = rabi_step_circuit(3, qubit=2)
        assert [op.name for op in circuit] == ["X_AMP_3", "MEASZ"]


class TestIsing:
    def test_paper_statistics(self):
        circuit = ising_circuit()
        assert circuit.num_qubits == 7
        # "< 1 % two-qubit gates"
        assert circuit.two_qubit_fraction() < 0.01
        assert circuit.two_qubit_count() > 0

    def test_layers_are_parallel(self):
        from repro.compiler import schedule_asap
        from repro.core.operations import default_operation_set
        circuit = ising_circuit(steps=20, include_measurement=False)
        schedule = schedule_asap(circuit, default_operation_set())
        assert len(schedule.scheduled) / len(schedule.cycles()) > 5.0

    def test_layer_name_diversity(self):
        # A layer must hold several distinct names (limits SOMQ).
        circuit = ising_circuit(steps=1, coupling_every=0,
                                include_measurement=False)
        first_layer = [op.name for op in circuit][:7]
        assert 4 <= len(set(first_layer)) <= 6


class TestGroverSqrt:
    def test_paper_statistics(self):
        circuit = grover_sqrt_circuit()
        assert circuit.num_qubits == 8
        # "~39 % two-qubit gates"
        assert 0.3 < circuit.two_qubit_fraction() < 0.45

    def test_sequential_nature(self):
        from repro.compiler import schedule_asap
        from repro.core.operations import default_operation_set
        circuit = grover_sqrt_circuit(iterations=1,
                                      include_measurement=False)
        schedule = schedule_asap(circuit, default_operation_set())
        assert len(schedule.scheduled) / len(schedule.cycles()) < 2.5

    def test_toffoli_truth_table(self):
        for a in (0, 1):
            for b in (0, 1):
                circuit = Circuit("t", 3)
                if a:
                    circuit.add("X", 0)
                if b:
                    circuit.add("X", 1)
                toffoli(circuit, 0, 1, 2)
                state = simulate(circuit, 3)
                expected_target = a & b
                assert state.measure_probability_one(2) == pytest.approx(
                    expected_target, abs=1e-9)

    def test_multi_controlled_z_phase(self):
        # CCZ via the ladder: |111...> acquires a minus sign.
        circuit = Circuit("t", 4)
        for qubit in (0, 1, 2):
            circuit.add("X", qubit)
        multi_controlled_z(circuit, [0, 1], 2, [3])
        state = simulate(circuit, 4)
        amplitude = state.amplitudes[0b1110]
        assert amplitude.real == pytest.approx(-1.0, abs=1e-9)

    def test_mcz_work_qubits_restored(self):
        circuit = Circuit("t", 6)
        for qubit in (0, 1, 2, 3):
            circuit.add("X", qubit)
        multi_controlled_z(circuit, [0, 1, 2], 3, [4, 5])
        state = simulate(circuit, 6)
        # Work qubits 4, 5 end in |0>.
        assert state.measure_probability_one(4) == pytest.approx(0.0,
                                                                 abs=1e-9)
        assert state.measure_probability_one(5) == pytest.approx(0.0,
                                                                 abs=1e-9)


class TestGrover2Q:
    @pytest.mark.parametrize("marked", range(4))
    def test_ideal_output_is_marked_state(self, marked):
        state = grover2q_ideal_state(marked)
        assert abs(state[marked]) ** 2 == pytest.approx(1.0)

    @pytest.mark.parametrize("marked", range(4))
    def test_native_equals_gate_level(self, marked):
        native = grover2q_circuit(marked, qubit_a=0, qubit_b=1,
                                  num_qubits=2, native=True)
        state = simulate(native, 2)
        assert state.probability(marked) == pytest.approx(1.0)

    def test_native_uses_experiment_gate_set(self):
        circuit = grover2q_circuit(0, native=True)
        allowed = {"I", "X", "Y", "X90", "Y90", "XM90", "YM90", "CZ",
                   "MEASZ"}
        assert {op.name for op in circuit} <= allowed

    def test_two_cz_gates(self):
        circuit = grover2q_circuit(3)
        assert circuit.two_qubit_count() == 2

    def test_invalid_marked_state(self):
        with pytest.raises(ValueError):
            grover2q_circuit(4)
