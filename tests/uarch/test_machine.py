"""End-to-end machine tests: the paper's example programs executed on
the full microarchitecture + plant."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Assembler, seven_qubit_instantiation, \
    two_qubit_instantiation
from repro.core.errors import (
    OperationConflictError,
    RuntimeFault,
    TimingViolationError,
)
from repro.core.microcode import MicroOpRole
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, UarchConfig, slip_config
from repro.uarch.devices import QubitMicroOp
from repro.uarch.quantum_pipeline import ReservedPoint
from shot_recording import recorded_shot


def make_machine(isa=None, noise=None, seed=0, config=None):
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant, config=config)


def load(machine, text):
    machine.load(Assembler(machine.isa).assemble_text(text))


class TestFig3AllXYRoutine:
    """The Fig. 3 two-qubit AllXY routine on the machine."""

    TEXT = """
    SMIS S0, {0}
    SMIS S2, {2}
    SMIS S7, {0, 2}
    QWAIT 10000
    0, Y S7
    1, X90 S0 | X S2
    1, MEASZ S7
    QWAIT 50
    STOP
    """

    def test_operations_applied_in_order(self):
        machine = make_machine()
        load(machine, self.TEXT)
        _, log = recorded_shot(machine)
        names = [op.name for op in log]
        # Y on both qubits (SOMQ, one device channel per qubit), then
        # X90 and X, then two measurements.
        assert names[0] == names[1] == "Y"
        assert set(names[2:4]) == {"X90", "X"}
        assert names[4] == names[5] == "MEASZ"

    def test_relative_timing_matches_paper(self):
        # Y immediately after init, X90/X 20 ns later, MEASZ 40 ns later.
        machine = make_machine()
        load(machine, self.TEXT)
        _, log = recorded_shot(machine)
        start = {op.name: op.start_ns for op in log}
        assert start["X90"] - start["Y"] == pytest.approx(20.0)
        assert start["MEASZ"] - start["Y"] == pytest.approx(40.0)

    def test_somq_y_on_both_qubits(self):
        machine = make_machine()
        load(machine, self.TEXT)
        _, log = recorded_shot(machine)
        y_ops = [op for op in log if op.name == "Y"]
        assert sorted(q for op in y_ops for q in op.qubits) == [0, 2]

    def test_measurement_results_recorded(self):
        machine = make_machine(seed=3)
        load(machine, self.TEXT)
        trace = machine.run_shot()
        assert len(trace.results) == 2
        assert {record.qubit for record in trace.results} == {0, 2}

    def test_expected_statistics(self):
        # Qubit 0: Y then X90 -> P(1) = 0.5; qubit 2: Y then X -> |0>.
        machine = make_machine(seed=11)
        load(machine, self.TEXT)
        ones0 = ones2 = 0
        shots = 300
        for _ in range(shots):
            trace = machine.run_shot()
            ones0 += trace.last_result(0)
            ones2 += trace.last_result(2)
        assert ones0 / shots == pytest.approx(0.5, abs=0.08)
        assert ones2 / shots == pytest.approx(0.0, abs=0.02)


class TestFig4ActiveReset:
    """Fig. 4: fast conditional execution resets the qubit."""

    TEXT = """
    SMIS S2, {2}
    QWAIT 10000
    X90 S2
    MEASZ S2
    QWAIT 50
    C_X S2
    MEASZ S2
    STOP
    """

    def test_noiseless_reset_is_perfect(self):
        machine = make_machine(seed=5)
        load(machine, self.TEXT)
        for _ in range(50):
            trace = machine.run_shot()
            assert trace.last_result(2) == 0

    def test_cx_cancelled_when_result_zero(self):
        machine = make_machine(seed=5)
        load(machine, self.TEXT)
        saw_cancelled = saw_executed = False
        for _ in range(60):
            trace = machine.run_shot()
            first_result = trace.results_for(2)[0].reported_result
            cx = [t for t in trace.triggers if t.name == "C_X"]
            assert len(cx) == 1
            if first_result == 1:
                assert cx[0].executed
                saw_executed = True
            else:
                assert not cx[0].executed
                saw_cancelled = True
        assert saw_executed and saw_cancelled

    def test_conditional_gate_only_in_plant_log_when_executed(self):
        machine = make_machine(seed=9)
        load(machine, self.TEXT)
        trace, log = recorded_shot(machine)
        cx_applied = [op for op in log if op.name == "C_X"]
        cx_trigger = [t for t in trace.triggers if t.name == "C_X"]
        assert len(cx_applied) == (1 if cx_trigger[0].executed else 0)

    def test_noisy_reset_bounded_by_readout(self):
        machine = make_machine(noise=NoiseModel(), seed=21)
        load(machine, self.TEXT)
        zeros = 0
        shots = 600
        for _ in range(shots):
            trace = machine.run_shot()
            zeros += 1 - trace.last_result(2)
        # Paper: 82.7 %, limited by readout fidelity (~0.905 here).
        assert zeros / shots == pytest.approx(0.827, abs=0.05)


class TestTriggerPlans:
    """Each routed device operation is resolved once per loaded binary
    and trigger time into its trigger steps (condition, unitary,
    duration, role and both trigger records); the flag itself is still
    evaluated at every trigger of every shot."""

    X_THEN_MEASURE = """
    SMIS S2, {2}
    X S2
    MEASZ S2
    STOP
    """
    IDLE_THEN_MEASURE = """
    SMIS S2, {2}
    I S2
    MEASZ S2
    STOP
    """

    @staticmethod
    def _plans(machine):
        return [plan for _, planned in machine._trigger_plans.values()
                for _, _, plan in planned]

    def test_reload_rederives_plans(self):
        machine = make_machine()
        load(machine, self.X_THEN_MEASURE)
        first = machine.run_shot()
        first_plans = self._plans(machine)
        assert [t.name for t in first.triggers] == ["X", "MEASZ"]
        assert first.last_result(2) == 1
        assert first_plans

        load(machine, self.IDLE_THEN_MEASURE)
        assert machine._trigger_plans == {}
        other = machine.run_shot()
        assert [t.name for t in other.triggers] == ["I", "MEASZ"]
        assert other.last_result(2) == 0
        assert not any(plan is old for plan in self._plans(machine)
                       for old in first_plans)

        load(machine, self.X_THEN_MEASURE)
        again = machine.run_shot()
        assert [t.name for t in again.triggers] == ["X", "MEASZ"]
        assert again.last_result(2) == 1
        assert again.triggers == first.triggers
        assert not any(plan is old for plan in self._plans(machine)
                       for old in first_plans)

    def test_plans_are_reused_across_shots(self):
        """A second pipeline shot of an FMR-free binary allocates no
        step: it runs the cached steps and records their prebuilt
        trigger records."""
        machine = make_machine()
        load(machine, self.X_THEN_MEASURE)
        machine.run_shot()
        plans = self._plans(machine)
        steps = [step for plan in plans for step in plan]
        trace = machine.run_shot()
        assert all(new is old for new, old
                   in zip(self._plans(machine), plans, strict=True))
        assert len(trace.triggers) == len(steps)
        assert all(record is step.executed for record, step
                   in zip(trace.triggers, steps, strict=True))

    def test_routes_have_plain_keys_and_are_reused(self):
        """One cache keyed by cycle, trigger time and micro-op objects
        holds each point's routing (the distributor's grouping, with
        plain ``(kind value, index)`` queue keys) and its trigger
        steps."""
        machine = make_machine(isa=seven_qubit_instantiation())
        microcode = machine.microcode
        entries = [QubitMicroOp(microcode.translate_name("MEASZ")[0], 0),
                   QubitMicroOp(microcode.translate_name("MEASZ")[0], 3),
                   QubitMicroOp(microcode.translate_name("X")[0], 1)]
        planned = machine._planned_routes(ReservedPoint(4, entries), 80.0)
        assert [device_op for _, device_op, _ in planned] == \
            machine.distributor.distribute(4, entries)
        assert [key for key, _, _ in planned] == [("measurement", 0),
                                                  ("microwave", 1)]
        assert machine._planned_routes(
            ReservedPoint(4, list(entries)), 80.0) is planned
        assert machine._planned_routes(
            ReservedPoint(5, entries), 100.0)[0][1].cycle == 5
        load(machine, self.X_THEN_MEASURE)
        assert machine._planned_routes(
            ReservedPoint(4, entries), 80.0) is not planned

    def test_trigger_time_is_part_of_the_key(self):
        """The same point triggered at two times (a slipped timeline)
        gets two step tuples, each carrying its own time in both
        trigger records, at the same codeword-output offset."""
        machine = make_machine()
        entries = [QubitMicroOp(
            machine.microcode.translate_name("C_X")[0], 2)]
        point = ReservedPoint(4, entries)
        ((_, _, early),) = machine._planned_routes(point, 80.0)
        ((_, _, late),) = machine._planned_routes(point, 95.0)
        assert early is not late
        assert machine._planned_routes(point, 95.0)[0][2] is late
        config = machine.config
        offset = config.fce_evaluation_ns + config.codeword_output_ns
        for (step,), due in ((early, 80.0), (late, 95.0)):
            assert step.time_ns == due
            for record, executed in ((step.executed, True),
                                     (step.cancelled, False)):
                assert record.executed is executed
                assert (record.name, record.qubits, record.cycle) == \
                    ("C_X", (2,), 4)
                assert record.condition == "LAST_ONE"
                assert record.trigger_ns == due
                assert record.output_ns - record.trigger_ns == offset

    def test_new_config_drops_the_steps(self):
        """Steps carry times derived from the config, so assigning one
        starts the cache over: the next shot's trigger records carry
        the new codeword-output latency."""
        machine = make_machine()
        load(machine, self.X_THEN_MEASURE)
        before = machine.run_shot()
        config = machine.config
        machine.config = replace(
            config, codeword_output_ns=config.codeword_output_ns + 10.0)
        assert machine._trigger_plans == {}
        after = machine.run_shot()
        assert [t.trigger_ns for t in after.triggers] == \
            [t.trigger_ns for t in before.triggers]
        assert [t.output_ns - 10.0 for t in after.triggers] == \
            pytest.approx([t.output_ns for t in before.triggers])

    def test_pair_half_without_pair_info_raises(self):
        """A pair half must name its pair: the step builder refuses one
        that does not, whether or not a shot would release it."""
        machine = make_machine()
        source = machine.microcode.translate_name("CZ")[0]
        assert source.role is MicroOpRole.SOURCE
        with pytest.raises(RuntimeFault, match="CZ micro-op lacks pair"):
            machine._planned_routes(
                ReservedPoint(4, [QubitMicroOp(source, 0)]), 80.0)
        assert machine._trigger_plans == {}

    def test_conditional_flag_evaluated_every_shot(self):
        machine = make_machine(seed=5)
        load(machine, TestFig4ActiveReset.TEXT)
        executed = []
        for _ in range(60):
            trace, log = recorded_shot(machine)
            first_result = trace.results_for(2)[0].reported_result
            (cx,) = [t for t in trace.triggers if t.name == "C_X"]
            # A cancelled trigger keeps its record, executed=False.
            assert cx.executed == (first_result == 1)
            assert cx.condition == "LAST_ONE"
            assert cx.qubits == (2,)
            applied = [op.name for op in log]
            assert ("C_X" in applied) == cx.executed
            executed.append(cx.executed)
        assert any(executed) and not all(executed)


class TestFig5CFC:
    """Fig. 5: comprehensive feedback control via FMR/CMP/BR."""

    TEXT = """
    SMIS S0, {0}
    SMIS S2, {2}
    LDI R0, 1
    X90 S2
    MEASZ S2
    QWAIT 30
    FMR R1, Q2
    CMP R1, R0
    BR EQ, eq_path
    ne_path:
    X S0
    BR ALWAYS, next
    eq_path:
    Y S0
    next:
    STOP
    """

    def test_branch_follows_measurement(self):
        machine = make_machine(seed=2)
        load(machine, self.TEXT)
        saw = set()
        for _ in range(60):
            trace, log = recorded_shot(machine)
            result = trace.results_for(2)[0].reported_result
            applied = [op.name for op in log if op.qubits == (0,)]
            assert len(applied) == 1
            expected = "Y" if result == 1 else "X"
            assert applied[0] == expected
            saw.add(expected)
        assert saw == {"X", "Y"}

    def test_fmr_fetches_reported_result(self):
        machine = make_machine(seed=8)
        load(machine, self.TEXT)
        trace = machine.run_shot()
        result = trace.results_for(2)[0].reported_result
        assert machine.gprs.read(1) == result

    def test_mock_results_alternate_x_y(self):
        # The paper's CFC verification: the UHFQC produces alternating
        # mock results; the output must alternate X and Y.
        machine = make_machine(seed=4)
        machine.measurement_unit.inject_mock_results(
            2, [0, 1] * 10)
        load(machine, self.TEXT)
        applied = []
        for _ in range(20):
            _, log = recorded_shot(machine)
            ops = [op.name for op in log if op.qubits == (0,)]
            applied.extend(ops)
        assert applied == ["X", "Y"] * 10

    def test_mock_results_do_not_touch_plant(self):
        machine = make_machine(seed=4)
        machine.measurement_unit.inject_mock_results(2, [1])
        load(machine, self.TEXT)
        _, log = recorded_shot(machine)
        measured = [op for op in log if op.name == "MEASZ"]
        assert measured == []

    def test_fmr_deadlock_detected(self):
        machine = make_machine()
        load(machine, """
        FMR R0, Q2
        STOP
        """)
        # Q2 is valid (no measurement pending): FMR returns 0 directly.
        trace = machine.run_shot()
        assert machine.gprs.read(0) == 0

    def test_fmr_waits_for_pending_result(self):
        machine = make_machine(seed=1)
        load(machine, """
        SMIS S2, {2}
        X S2
        MEASZ S2
        FMR R1, Q2
        STOP
        """)
        trace = machine.run_shot()
        # Noiseless: X|0> = |1>, so FMR must deliver 1 after stalling.
        assert machine.gprs.read(1) == 1
        # The stall pushed classical time past the measurement window.
        assert trace.classical_time_ns > 300.0


class TestTimingPolicies:
    DENSE = """
    SMIS S0, {0}
    SMIS S1, {1}
    SMIS S2, {2}
    SMIS S3, {3}
    X S0
    0, X S1
    0, X S2
    0, X S3
    1, Y S0
    0, Y S1
    0, Y S2
    0, Y S3
    STOP
    """

    def test_strict_raises_on_underrun(self):
        # 4 bundle words per 20 ns point at 10 ns/instruction cannot
        # keep up: Rreq > Rallowed.
        isa = seven_qubit_instantiation()
        machine = make_machine(isa=isa)
        load(machine, self.DENSE)
        with pytest.raises(TimingViolationError):
            machine.run_shot()

    def test_slip_records_slippage(self):
        isa = seven_qubit_instantiation()
        machine = make_machine(isa=isa, config=slip_config())
        load(machine, self.DENSE)
        trace = machine.run_shot()
        assert trace.slips
        assert trace.max_slip_ns() > 0

    def test_sustainable_stream_has_no_slip(self):
        isa = seven_qubit_instantiation()
        machine = make_machine(isa=isa, config=slip_config())
        load(machine, """
        SMIS S7, {0, 1, 2, 3}
        X S7
        Y S7
        X S7
        Y S7
        STOP
        """)
        trace = machine.run_shot()
        assert trace.slips == []

    def test_conflict_stops_processor(self):
        machine = make_machine()
        load(machine, """
        SMIS S0, {0}
        SMIS S1, {0}
        X S0
        0, Y S1
        STOP
        """)
        with pytest.raises(OperationConflictError):
            machine.run_shot()


class TestTwoQubitGates:
    def test_cz_applied_once_per_pair(self):
        machine = make_machine(seed=0)
        load(machine, """
        SMIS S0, {0}
        SMIT T0, {(0, 2)}
        X S0
        CZ T0
        STOP
        """)
        _, log = recorded_shot(machine)
        cz_ops = [op for op in log if op.name == "CZ"]
        assert len(cz_ops) == 1
        assert cz_ops[0].qubits == (0, 2)

    def test_cz_produces_entangling_phase(self):
        # |+>|1> -CZ-> |->|1>: verify via the plant state.
        machine = make_machine(seed=0)
        load(machine, """
        SMIS S0, {0}
        SMIS S2, {2}
        SMIT T0, {(0, 2)}
        1, H S0 | X S2
        CZ T0
        2, H S0     # CZ lasts 2 cycles; wait for it to finish
        STOP
        """)
        machine.run_shot()
        # After H-CZ-H with the partner in |1>, qubit 0 ends in |1>.
        assert machine.plant.probability_one(0) == pytest.approx(1.0)

    def test_seven_qubit_parallel_cz(self):
        isa = seven_qubit_instantiation()
        machine = make_machine(isa=isa)
        load(machine, """
        SMIT T0, {(2, 0), (1, 4)}
        CZ T0
        STOP
        """)
        _, log = recorded_shot(machine)
        cz_ops = [op for op in log if op.name == "CZ"]
        assert len(cz_ops) == 2
        assert {op.qubits for op in cz_ops} == {(2, 0), (1, 4)}


class TestBinaryExecution:
    def test_machine_runs_from_raw_words(self):
        # The machine decodes real binary, not parsed objects.
        isa = two_qubit_instantiation()
        assembled = Assembler(isa).assemble_text("""
        SMIS S2, {2}
        X S2
        MEASZ S2
        STOP
        """)
        machine = make_machine()
        machine.load(list(assembled.words))
        trace = machine.run_shot()
        assert trace.last_result(2) == 1
