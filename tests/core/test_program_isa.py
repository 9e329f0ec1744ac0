"""Tests for the Program container and the ISA instantiation."""

import pytest

from repro.core import (
    AssemblyError,
    ConfigurationError,
    EQASMInstantiation,
    Program,
    default_operation_set,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.errors import SpecError
from repro.core.instructions import Br, Ldi, Nop
from repro.core.isaspec import (
    build_encoding_spec,
    load_registered_spec,
    registered_spec_names,
)
from repro.core.operations import OperationSet
from repro.core.registers import ComparisonFlag
from repro.topology import surface7, two_qubit_chip


def has_unresolved_labels(program):
    """Whether any BR of ``program`` still carries a symbolic target."""
    return any(isinstance(ins, Br) and isinstance(ins.target, str)
               for ins in program.instructions)


def instantiate(spec, **overrides):
    """A seven-qubit instantiation over ``spec``."""
    params = dict(name="test", topology=surface7(),
                  operations=default_operation_set(), encoding_spec=spec)
    params.update(overrides)
    return EQASMInstantiation(**params)


class TestProgramContainer:
    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            Program.from_text("a:\nNOP\na:\nNOP")

    def test_trailing_label_points_past_end(self):
        program = Program.from_text("NOP\nend:")
        assert program.labels["end"] == 1

    def test_label_on_empty_program(self):
        program = Program.from_text("only:")
        assert program.labels["only"] == 0
        assert len(program) == 0

    def test_has_unresolved_labels(self):
        program = Program.from_text("BR ALWAYS, later\nlater:\nNOP")
        assert has_unresolved_labels(program)
        resolved = program.resolve_labels()
        assert not has_unresolved_labels(resolved)

    def test_resolve_missing_label_raises(self):
        program = Program(instructions=[
            Br(condition=ComparisonFlag.ALWAYS, target="ghost")])
        with pytest.raises(AssemblyError):
            program.resolve_labels()

    def test_numeric_targets_untouched(self):
        program = Program(instructions=[
            Br(condition=ComparisonFlag.ALWAYS, target=-2)])
        resolved = program.resolve_labels()
        assert resolved.instructions[0].target == -2

    def test_collection_protocol(self):
        program = Program()
        program.append(Nop())
        program.extend([Ldi(rd=0, imm=1)])
        assert len(program) == 2
        assert program[1] == Ldi(rd=0, imm=1)
        assert list(iter(program)) == program.instructions

    def test_to_assembly_places_labels(self):
        text = "start:\n    NOP\nend:\n"
        program = Program.from_text(text)
        rendered = program.to_assembly()
        assert rendered.index("start:") < rendered.index("NOP")
        assert rendered.rstrip().endswith("end:")

    def test_round_trip_stability(self):
        text = """
        begin:
        LDI R0, 3
        loop:
        SUB R0, R0, R1
        BR GT, loop
        STOP
        """
        program = Program.from_text(text)
        once = program.to_assembly()
        twice = Program.from_text(once).to_assembly()
        assert once == twice


class TestInstantiation:
    def test_seven_qubit_defaults(self):
        isa = seven_qubit_instantiation()
        assert isa.instruction_width == 32
        assert isa.vliw_width == 2
        assert isa.pi_width == 3          # Config 9: wPI = 3
        assert isa.max_pi == 7
        assert isa.max_qwait == (1 << 20) - 1
        assert isa.cycle_time_ns == 20.0
        assert isa.measurement_cycles == 15

    def test_mask_field_overflow_rejected(self):
        # A chip needing more mask bits than the format provides.
        with pytest.raises(ConfigurationError, match="qubit mask"):
            instantiate(build_encoding_spec(
                "bad", 32, qubit_mask_field_width=3))

    def test_pair_mask_overflow_rejected(self):
        with pytest.raises(ConfigurationError, match="pair mask"):
            instantiate(build_encoding_spec(
                "bad", 32, pair_mask_field_width=8))

    def test_opcode_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="4-bit opcodes"):
            instantiate(load_registered_spec("fig8-32bit"),
                        operations=OperationSet(opcode_width=4))

    def test_vliw_width_positive(self):
        with pytest.raises(SpecError, match="no VLIW slots"):
            instantiate(build_encoding_spec("bad", 32, vliw_width=0))

    def test_too_many_target_registers_rejected(self):
        with pytest.raises(ConfigurationError, match="S registers"):
            instantiate(load_registered_spec("fig8-32bit"),
                        num_single_qubit_target_registers=64)

    @pytest.mark.parametrize("name", registered_spec_names())
    def test_widths_come_from_the_spec(self, name):
        spec = load_registered_spec(name)
        isa = instantiate(spec, topology=two_qubit_chip())

        def width(format_name, attr):
            return next(f.width for f in spec.format_named(format_name).fields
                        if f.attr == attr)

        assert isa.instruction_width == spec.instruction_width
        assert isa.vliw_width == len(spec.bundle.slots)
        assert isa.pi_width == spec.bundle.pi_width
        assert isa.qubit_mask_field_width == width("SMIS", "qubits")
        assert isa.pair_mask_field_width == width("SMIT", "pairs")
        assert isa.qwait_immediate_width == width("QWAIT", "cycles")

    def test_ns_cycle_conversions(self):
        """Durations are whole 20 ns timing cycles (rounded to the
        nearest)."""
        isa = seven_qubit_instantiation()
        assert round(300.0 / isa.cycle_time_ns) == 15
        assert round(30.0 / isa.cycle_time_ns) == 2
        assert 50 * isa.cycle_time_ns == 1000.0

    def test_qubit_mask_helpers(self):
        isa = seven_qubit_instantiation()
        mask = isa.qubit_mask([0, 2, 6])
        assert mask == 0b1000101
        assert isa.qubits_from_mask(mask) == (0, 2, 6)

    def test_qubit_mask_rejects_off_chip(self):
        isa = two_qubit_instantiation()
        with pytest.raises(ConfigurationError):
            isa.qubit_mask([1])

    def test_pair_mask_helpers(self):
        isa = seven_qubit_instantiation()
        mask = isa.pair_mask([(2, 0), (1, 3)])
        assert isa.pairs_from_mask(mask) == ((1, 3), (2, 0))

    def test_two_qubit_chip_masks_fit_fig8_fields(self):
        # The experiment chip reuses the 7-/16-bit fields with slack.
        isa = two_qubit_instantiation()
        assert isa.topology.qubit_mask_width <= isa.qubit_mask_field_width
        assert isa.topology.pair_mask_width <= isa.pair_mask_field_width
