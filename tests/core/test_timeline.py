"""Tests for the reserve-phase timeline semantics (Section 3.1)."""

import pytest

from repro.core.errors import AssemblyError, OperationConflictError
from repro.core.isa import seven_qubit_instantiation
from repro.core.program import Program
from repro.core.timeline import TimelineBuilder, build_timeline
from machine_probes import current_cycle


@pytest.fixture(scope="module")
def isa():
    return seven_qubit_instantiation()


def timeline_of(isa, text, gpr_reader=None):
    program = Program.from_text(text)
    return build_timeline(isa, program.instructions, gpr_reader=gpr_reader)


def operations_at(timeline, cycle):
    """Operations starting at ``cycle`` (empty if none)."""
    return [op for point in timeline.points if point.cycle == cycle
            for op in point.operations]


def busy_until(timeline):
    """Cycle at which the last operation finishes."""
    return max(point.cycle + op.operation.duration_cycles
               for point in timeline.points for op in point.operations)


class TestSection313Example:
    """The worked example of Section 3.1.3: four back-to-back ops."""

    def test_back_to_back_schedule(self, isa):
        text = """
        SMIS S0, {0}
        X S0            # Q_OP0: starts at default PI=1 -> cycle 1
        Y S0            # Q_OP1: default PI=1 -> cycle 2
        QWAITR R0       # register-valued waiting (R0 = 1)
        0, X S0         # Q_OP2 at cycle 3
        QWAIT 0         # equivalent to NOP
        1, Y S0         # Q_OP3 at cycle 4
        """
        timeline = timeline_of(isa, text, gpr_reader=lambda r: 1)
        cycles = [point.cycle for point in timeline.points]
        assert cycles == [1, 2, 3, 4]

    def test_qwait_zero_is_nop(self, isa):
        with_wait = timeline_of(isa, "SMIS S0, {0}\nX S0\nQWAIT 0\n1, Y S0")
        without = timeline_of(isa, "SMIS S0, {0}\nX S0\n1, Y S0")
        assert [p.cycle for p in with_wait.points] == \
            [p.cycle for p in without.points]


class TestFig3Timing:
    def test_fig3_cycles(self, isa):
        text = """
        SMIS S0, {0}
        SMIS S2, {2}
        SMIS S7, {0, 2}
        QWAIT 10000
        0, Y S7
        1, X90 S0 | X S2
        1, MEASZ S7
        QWAIT 50
        """
        timeline = timeline_of(isa, text)
        cycles = [point.cycle for point in timeline.points]
        assert cycles == [10000, 10001, 10002]
        # Measurement lasts 15 cycles: program busy until 10017.
        assert busy_until(timeline) == 10017

    def test_somq_expansion(self, isa):
        timeline = timeline_of(isa, "SMIS S7, {0, 2}\n0, Y S7")
        ops = operations_at(timeline, 0)
        assert len(ops) == 1
        assert ops[0].qubits == (0, 2)
        assert ops[0].touched_qubits() == (0, 2)


class TestTargetRegisterSemantics:
    def test_register_read_at_bundle_time(self, isa):
        # SMIS after the bundle must not retroactively change it.
        text = """
        SMIS S0, {0}
        X S0
        SMIS S0, {1}
        Y S0
        """
        timeline = timeline_of(isa, text)
        first, second = timeline.all_operations()
        assert first[1].qubits == (0,)
        assert second[1].qubits == (1,)

    def test_unset_register_raises(self, isa):
        with pytest.raises(AssemblyError):
            timeline_of(isa, "X S5")

    def test_two_qubit_resolution(self, isa):
        text = """
        SMIT T3, {(1, 3), (2, 0)}
        CZ T3
        """
        timeline = timeline_of(isa, text)
        (cycle, op), = timeline.all_operations()
        assert cycle == 1
        assert sorted(op.pairs) == [(1, 3), (2, 0)]
        assert sorted(op.touched_qubits()) == [0, 1, 2, 3]

    def test_qwaitr_needs_reader(self, isa):
        with pytest.raises(AssemblyError):
            timeline_of(isa, "QWAITR R0")

    def test_qwaitr_negative_rejected(self, isa):
        with pytest.raises(AssemblyError):
            timeline_of(isa, "QWAITR R0", gpr_reader=lambda r: -5)


class TestConflictDetection:
    def test_same_qubit_in_two_bundles_at_same_point(self, isa):
        # Section 4.3: "if two different quantum bundle instructions
        # specify a quantum operation on the same qubit, an error is
        # raised, and the quantum processor stops."
        text = """
        SMIS S0, {0}
        SMIS S1, {0}
        X S0
        0, Y S1
        """
        with pytest.raises(OperationConflictError):
            timeline_of(isa, text)

    def test_same_qubit_in_one_vliw_word(self, isa):
        text = """
        SMIS S0, {0}
        SMIS S1, {0, 1}
        1, X S0 | Y S1
        """
        with pytest.raises(OperationConflictError):
            timeline_of(isa, text)

    def test_single_and_two_qubit_conflict(self, isa):
        text = """
        SMIS S0, {0}
        SMIT T0, {(2, 0)}
        1, X S0 | CZ T0
        """
        with pytest.raises(OperationConflictError):
            timeline_of(isa, text)

    def test_disjoint_operations_allowed(self, isa):
        text = """
        SMIS S0, {0}
        SMIT T0, {(1, 3)}
        1, X S0 | CZ T0
        """
        timeline = timeline_of(isa, text)
        assert len(operations_at(timeline, 1)) == 2

    def test_sequential_same_qubit_no_conflict(self, isa):
        text = """
        SMIS S0, {0}
        X S0
        X S0
        """
        timeline = timeline_of(isa, text)
        assert len(timeline.points) == 2


class TestTimelineQueries:
    def test_total_cycles_includes_durations(self, isa):
        timeline = timeline_of(isa, "SMIS S0, {0}\nMEASZ S0")
        assert busy_until(timeline) == 1 + 15

    def test_all_operations_in_time_order(self, isa):
        text = """
        SMIS S0, {0}
        SMIS S1, {1}
        QWAIT 5
        0, X S0
        QWAIT 5
        0, Y S1
        """
        timeline = timeline_of(isa, text)
        cycles = [cycle for cycle, _ in timeline.all_operations()]
        assert cycles == sorted(cycles) == [5, 10]

    def test_current_cycle_property(self, isa):
        builder = TimelineBuilder(isa)
        program = Program.from_text("QWAIT 7\nQWAIT 3")
        builder.feed_program(program.instructions)
        assert current_cycle(builder) == 10

    def test_classical_instructions_ignored(self, isa):
        text = """
        LDI R0, 5
        NOP
        SMIS S0, {0}
        CMP R0, R0
        X S0
        """
        timeline = timeline_of(isa, text)
        assert [p.cycle for p in timeline.points] == [1]
