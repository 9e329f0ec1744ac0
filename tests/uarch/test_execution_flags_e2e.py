"""End-to-end tests of all four execution-flag types (Section 4.3).

The instantiation defines four combinatorial flag functions:
(1) always '1'; (2) '1' iff the last finished result was |1>;
(3) '1' iff it was |0>; (4) '1' iff the last two results were equal.
Each is exercised through a full program on the machine, with mock
results making the flag history deterministic.
"""

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.core.operations import (
    ExecutionFlag,
    OperationKind,
    QuantumOperation,
    default_operation_set,
)
from repro.quantum import NoiseModel, QuantumPlant, gates
from repro.uarch import QuMAv2
from shot_recording import recorded_shot


def make_machine(operations=None, seed=0):
    isa = two_qubit_instantiation(operations)
    plant = QuantumPlant(isa.topology, noise=NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return isa, QuMAv2(isa, plant)


def run_with_mock(machine, isa, text, mock_results):
    machine.measurement_unit.clear_mock_results()
    machine.measurement_unit.inject_mock_results(2, mock_results)
    machine.load(Assembler(isa).assemble_text(text))
    return machine.run_shot()


PROGRAM_ONE_MEAS = """
SMIS S2, {2}
MEASZ S2
QWAIT 30
GATE S2
STOP
"""

PROGRAM_TWO_MEAS = """
SMIS S2, {2}
MEASZ S2
QWAIT 30
MEASZ S2
QWAIT 30
GATE S2
STOP
"""


class TestAlwaysFlag:
    def test_unconditional_gate_always_fires(self):
        isa, machine = make_machine()
        trace = run_with_mock(machine, isa,
                              PROGRAM_ONE_MEAS.replace("GATE", "X"), [0])
        x_triggers = [t for t in trace.triggers if t.name == "X"]
        assert x_triggers[0].executed
        assert x_triggers[0].condition == "ALWAYS"


class TestLastOneFlag:
    @pytest.mark.parametrize("result,expected", [(1, True), (0, False)])
    def test_cx_follows_last_result(self, result, expected):
        isa, machine = make_machine()
        trace = run_with_mock(machine, isa,
                              PROGRAM_ONE_MEAS.replace("GATE", "C_X"),
                              [result])
        cx = [t for t in trace.triggers if t.name == "C_X"]
        assert cx[0].executed is expected


class TestLastZeroFlag:
    @pytest.mark.parametrize("result,expected", [(0, True), (1, False)])
    def test_c0x_follows_last_result(self, result, expected):
        isa, machine = make_machine()
        trace = run_with_mock(machine, isa,
                              PROGRAM_ONE_MEAS.replace("GATE", "C0_X"),
                              [result])
        c0x = [t for t in trace.triggers if t.name == "C0_X"]
        assert c0x[0].executed is expected


class TestLastTwoEqualFlag:
    @pytest.fixture()
    def setup(self):
        operations = default_operation_set()
        operations.add(QuantumOperation(
            name="CEQ_Y", kind=OperationKind.SINGLE_QUBIT,
            duration_cycles=1, unitary=gates.Y,
            condition=ExecutionFlag.LAST_TWO_EQUAL))
        return make_machine(operations)

    @pytest.mark.parametrize("results,expected", [
        ([0, 0], True),
        ([1, 1], True),
        ([0, 1], False),
        ([1, 0], False),
    ])
    def test_flag_four_compares_last_two(self, setup, results, expected):
        isa, machine = setup
        trace = run_with_mock(machine, isa,
                              PROGRAM_TWO_MEAS.replace("GATE", "CEQ_Y"),
                              results)
        ceq = [t for t in trace.triggers if t.name == "CEQ_Y"]
        assert ceq[0].executed is expected

    def test_single_measurement_not_enough(self, setup):
        # With only one finished result, "last two equal" reads '0'.
        isa, machine = setup
        trace = run_with_mock(machine, isa,
                              PROGRAM_ONE_MEAS.replace("GATE", "CEQ_Y"), [1])
        ceq = [t for t in trace.triggers if t.name == "CEQ_Y"]
        assert ceq[0].executed is False


class TestCancelledGatesDoNotTouchPlant:
    def test_cancelled_operation_absent_from_log(self):
        isa, machine = make_machine()
        machine.measurement_unit.clear_mock_results()
        machine.measurement_unit.inject_mock_results(2, [0])
        machine.load(Assembler(isa).assemble_text(
            PROGRAM_ONE_MEAS.replace("GATE", "C_X")))
        _, log = recorded_shot(machine)
        assert all(op.name != "C_X" for op in log)

    def test_somq_conditional_filters_per_qubit(self):
        """A conditional SOMQ gate on both qubits cancels only on the
        qubit whose flag reads '0'."""
        isa, machine = make_machine()
        machine.measurement_unit.clear_mock_results()
        machine.measurement_unit.inject_mock_results(0, [1])
        machine.measurement_unit.inject_mock_results(2, [0])
        text = """
        SMIS S0, {0}
        SMIS S2, {2}
        SMIS S7, {0, 2}
        1, MEASZ S7
        QWAIT 30
        C_X S7
        STOP
        """
        machine.load(Assembler(isa).assemble_text(text))
        trace, log = recorded_shot(machine)
        cx = {t.qubits[0]: t.executed for t in trace.triggers
              if t.name == "C_X"}
        assert cx == {0: True, 2: False}
        applied = [op.qubits for op in log if op.name == "C_X"]
        assert applied == [(0,)]
