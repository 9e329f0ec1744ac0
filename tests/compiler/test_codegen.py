"""Tests for eQASM code generation and the DSE instruction counting."""

import pytest

from repro.compiler import (
    Circuit,
    CodegenOptions,
    EQASMCodeGenerator,
    count_instructions,
    count_point_words,
    form_slots,
    schedule_asap,
)
from repro.compiler.scheduler import ScheduledOp
from repro.compiler.ir import CircuitOp
from repro.core import (
    Assembler,
    ConfigurationError,
    build_timeline,
    seven_qubit_instantiation,
)
from repro.core.instructions import Bundle, QWait, SMIS, SMIT, Stop
from repro.core.operations import default_operation_set


@pytest.fixture(scope="module")
def isa():
    return seven_qubit_instantiation()


@pytest.fixture(scope="module")
def ops():
    return default_operation_set()


def sched(circuit, ops):
    return schedule_asap(circuit, ops)


def entry(name, *qubits, cycle=0):
    return ScheduledOp(cycle=cycle, op=CircuitOp(name, tuple(qubits)),
                       duration=1)


class TestSlotFormation:
    def test_somq_merges_identical_ops(self):
        point = [entry("X", 0), entry("X", 1), entry("X", 2)]
        slots = form_slots(point, somq=True)
        assert len(slots) == 1
        assert slots[0].qubits == (0, 1, 2)

    def test_somq_keeps_distinct_ops_separate(self):
        point = [entry("X", 0), entry("Y", 1)]
        slots = form_slots(point, somq=True)
        assert len(slots) == 2

    def test_no_somq_one_slot_per_instance(self):
        point = [entry("X", 0), entry("X", 1)]
        slots = form_slots(point, somq=False)
        assert len(slots) == 2

    def test_two_qubit_somq_merge(self):
        point = [entry("CZ", 2, 0), entry("CZ", 1, 4)]
        slots = form_slots(point, somq=True)
        assert len(slots) == 1
        assert slots[0].pairs == ((1, 4), (2, 0))

    def test_mixed_point(self):
        point = [entry("X", 0), entry("CZ", 1, 4), entry("X", 5)]
        slots = form_slots(point, somq=True)
        assert len(slots) == 2


class TestPointWordCounting:
    def test_ts1_always_pays_a_qwait(self):
        options = CodegenOptions(timing="ts1", somq=False, vliw_width=2)
        assert count_point_words(gap=1, num_slots=2, options=options) == 2
        assert count_point_words(gap=100, num_slots=1, options=options) == 2

    def test_ts2_wait_shares_the_word(self):
        options = CodegenOptions(timing="ts2", somq=False, vliw_width=2)
        # 1 op + 1 wait = 2 slots = 1 word.
        assert count_point_words(gap=5, num_slots=1, options=options) == 1
        # 2 ops + wait = 3 slots = 2 words.
        assert count_point_words(gap=5, num_slots=2, options=options) == 2

    def test_ts3_short_gap_free(self):
        options = CodegenOptions(timing="ts3", pi_width=3, somq=False,
                                 vliw_width=2)
        assert count_point_words(gap=7, num_slots=2, options=options) == 1

    def test_ts3_long_gap_needs_qwait(self):
        options = CodegenOptions(timing="ts3", pi_width=3, somq=False,
                                 vliw_width=2)
        assert count_point_words(gap=8, num_slots=2, options=options) == 2

    def test_ts3_pi_width_matters(self):
        narrow = CodegenOptions(timing="ts3", pi_width=1, somq=False,
                                vliw_width=1)
        wide = CodegenOptions(timing="ts3", pi_width=4, somq=False,
                              vliw_width=1)
        assert count_point_words(gap=2, num_slots=1, options=narrow) == 2
        assert count_point_words(gap=2, num_slots=1, options=wide) == 1

    def test_ts2_requires_w2(self):
        with pytest.raises(ConfigurationError):
            CodegenOptions(timing="ts2", vliw_width=1)

    def test_unknown_timing_mode(self):
        with pytest.raises(ConfigurationError):
            CodegenOptions(timing="ts9")


class TestCountInstructions:
    def test_simple_circuit_count(self, ops):
        # Two back-to-back single-qubit gates on one qubit, ts3:
        # 2 bundle words.
        circuit = Circuit("t", 1).add("X", 0).add("Y", 0)
        schedule = sched(circuit, ops)
        options = CodegenOptions(timing="ts3", pi_width=3, somq=True,
                                 vliw_width=2)
        assert count_instructions(schedule, options) == 2

    def test_somq_reduces_counts(self, ops):
        circuit = Circuit("t", 4)
        for qubit in range(4):
            circuit.add("X", qubit)
        schedule = sched(circuit, ops)
        with_somq = CodegenOptions(timing="ts3", somq=True, vliw_width=1)
        without = CodegenOptions(timing="ts3", somq=False, vliw_width=1)
        assert count_instructions(schedule, with_somq) < \
            count_instructions(schedule, without)

    def test_wider_vliw_reduces_counts(self, ops):
        circuit = Circuit("t", 4)
        for qubit in range(4):
            circuit.add("X" if qubit % 2 else "Y", qubit)
        schedule = sched(circuit, ops)
        counts = [count_instructions(
            schedule, CodegenOptions(timing="ts3", somq=False,
                                     vliw_width=w)) for w in (1, 2, 4)]
        assert counts[0] > counts[1] > counts[2]


class TestExecutableCodegen:
    def test_register_setup_hoisted_to_preamble(self, isa, ops):
        circuit = Circuit("t", 2).add("X", 0).add("Y", 1).add("X", 0)
        schedule = sched(circuit, ops)
        program = EQASMCodeGenerator(isa).generate(schedule,
                                                   initialize_cycles=100)
        kinds = [type(ins).__name__ for ins in program.instructions]
        # All SMIS come before the first QWAIT.
        first_wait = kinds.index("QWait")
        assert all(k != "SMIS" for k in kinds[first_wait:])
        assert kinds[-1] == "Stop"

    def test_register_reuse(self, isa, ops):
        # The same mask used twice allocates one register, one SMIS.
        circuit = Circuit("t", 1).add("X", 0).add("X", 0)
        schedule = sched(circuit, ops)
        program = EQASMCodeGenerator(isa).generate(schedule)
        smis = [ins for ins in program.instructions
                if isinstance(ins, SMIS)]
        assert len(smis) == 1

    def test_generated_program_assembles(self, isa, ops):
        circuit = Circuit("t", 3)
        circuit.add("X", 0).add("Y", 1).add("CZ", 2, 0)
        # CZ (2,0) is an allowed pair on the surface-7 chip.
        schedule = sched(circuit, ops)
        program = EQASMCodeGenerator(isa).generate(schedule)
        assembled = Assembler(isa).assemble_program(program)
        assert len(assembled.words) > 0

    def test_generated_timeline_matches_schedule(self, isa, ops):
        circuit = Circuit("t", 2).add("X", 0).add("Y", 1).add("X90", 0)
        schedule = sched(circuit, ops)
        program = EQASMCodeGenerator(isa).generate(
            schedule, initialize_cycles=50, emit_stop=False)
        timeline = build_timeline(isa, program.instructions)
        cycles = [point.cycle for point in timeline.points]
        # Schedule points 0 and 1 map to 50 and 51 after the init wait.
        assert cycles == [50, 51]
        names_first = {op.name for point in timeline.points
                       if point.cycle == 50 for op in point.operations}
        assert names_first == {"X", "Y"}

    def test_large_wait_split_into_multiple_qwaits(self, isa, ops):
        circuit = Circuit("t", 1).add("X", 0)
        schedule = sched(circuit, ops)
        generator = EQASMCodeGenerator(isa)
        program = generator.generate(schedule,
                                     initialize_cycles=(1 << 20) + 5)
        waits = [ins for ins in program.instructions
                 if isinstance(ins, QWait)]
        assert len(waits) == 2
        assert sum(w.cycles for w in waits) == (1 << 20) + 5

    def test_two_qubit_operand_uses_t_register(self, isa, ops):
        circuit = Circuit("t", 3).add("CZ", 2, 0)
        schedule = sched(circuit, ops)
        program = EQASMCodeGenerator(isa).generate(schedule)
        smit = [ins for ins in program.instructions
                if isinstance(ins, SMIT)]
        assert len(smit) == 1
        assert smit[0].pairs == frozenset({(2, 0)})
        bundles = [ins for ins in program.instructions
                   if isinstance(ins, Bundle)]
        assert bundles[0].operations[0].register == ("T", 0)
